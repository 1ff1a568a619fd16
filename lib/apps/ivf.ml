module View = Adios_mem.View
module Rng = Adios_engine.Rng

type params = {
  vectors : int;
  dim : int;
  pad : int;
  nlist : int;
  nprobe : int;
  noise : int;
}

let default_params =
  { vectors = 100_000; dim = 16; pad = 112; nlist = 128; nprobe = 4; noise = 12 }

type t = {
  p : params;
  centroid_base : int;
  list_base : int array; (* byte address of each inverted list *)
  list_count : int array; (* members per list *)
}

let entry_bytes p = 8 + p.dim + p.pad

let pages_needed p =
  (* lists are spaced at ceil(vectors/nlist) entries each, after the
     page-aligned centroid block *)
  let per_list = (p.vectors + p.nlist - 1) / p.nlist in
  let bytes =
    (((p.nlist * p.dim) + 4095) / 4096 * 4096)
    + (p.nlist * per_list * entry_bytes p)
  in
  ((bytes + 4095) / 4096) + 1

let params t = t.p

(* round-robin assignment: vector i belongs to list (i mod nlist) *)
let list_of_vector t i = i mod t.p.nlist

let centroid_addr t c = t.centroid_base + (c * t.p.dim)

let clamp_u8 v = if v < 0 then 0 else if v > 255 then 255 else v

let gen_vector p rng ~centroid =
  let b = Bytes.create p.dim in
  for j = 0 to p.dim - 1 do
    let base = Char.code (Bytes.get centroid j) in
    let v = base + Rng.int rng (2 * p.noise + 1) - p.noise in
    Bytes.set b j (Char.chr (clamp_u8 v))
  done;
  b

let create view p ~seed =
  let rng = Rng.create seed in
  let centroid_base = 0 in
  let centroids =
    Array.init p.nlist (fun _ ->
        Bytes.init p.dim (fun _ -> Char.chr (Rng.int rng 256)))
  in
  Array.iteri
    (fun c vec ->
      View.write_string view (centroid_base + (c * p.dim)) (Bytes.to_string vec))
    centroids;
  let lists_start = ((centroid_base + (p.nlist * p.dim) + 4095) / 4096) * 4096 in
  let per_list = (p.vectors + p.nlist - 1) / p.nlist in
  let list_base =
    Array.init p.nlist (fun c -> lists_start + (c * per_list * entry_bytes p))
  in
  let list_count = Array.make p.nlist 0 in
  let t = { p; centroid_base; list_base; list_count } in
  for i = 0 to p.vectors - 1 do
    let c = list_of_vector t i in
    let slot = list_count.(c) in
    let addr = list_base.(c) + (slot * entry_bytes p) in
    View.write_u64 view addr (Int64.of_int i);
    let vec = gen_vector p rng ~centroid:centroids.(c) in
    View.write_string view (addr + 8) (Bytes.to_string vec);
    list_count.(c) <- slot + 1
  done;
  t

type query_source = { centroids : Bytes.t array; qp : params }

let query_source t view =
  let centroids =
    Array.init t.p.nlist (fun c ->
        View.read_blob view (centroid_addr t c) t.p.dim)
  in
  { centroids; qp = t.p }

let query qs rng =
  let c = Rng.int rng qs.qp.nlist in
  (gen_vector qs.qp rng ~centroid:qs.centroids.(c), c)

let rec last_distance = function
  | [ (d, _) ] -> d
  | _ :: rest -> last_distance rest
  | [] -> max_int

(* insertion-sorted top-k list (k is small). Most scanned vectors
   cannot enter a full list, and those leave it as it is, allocating
   nothing. *)
let topk_add k lst d id =
  if List.compare_length_with lst k = 0 && d >= last_distance lst then lst
  else
    let rec ins = function
      | [] -> [ (d, id) ]
      | ((d', _) as x) :: rest ->
        if d < d' then (d, id) :: x :: rest else x :: ins rest
    in
    let l = ins lst in
    if List.length l > k then List.filteri (fun i _ -> i < k) l else l

let scan_list t view ~tick ~k ~q ~list acc =
  let p = t.p in
  let batch = 64 in
  let count = t.list_count.(list) in
  let acc = ref acc in
  let since_tick = ref 0 in
  for slot = 0 to count - 1 do
    let addr = t.list_base.(list) + (slot * entry_bytes p) in
    let id = Int64.to_int (View.read_u64 view addr) in
    (* [q] is [dim] bytes long: the vector's computed bytes, read where
       they lie *)
    let d = View.sq_distance view (addr + 8) q in
    (* touch the padded tail so the paging traffic matches the full
       stored vector (BIGANN's 128 bytes) *)
    if p.pad > 0 then
      View.touch_range view ~addr:(addr + 8 + p.dim) ~len:p.pad ~write:false;
    acc := topk_add k !acc d id;
    incr since_tick;
    if !since_tick >= batch then begin
      tick !since_tick;
      since_tick := 0
    end
  done;
  if !since_tick > 0 then tick !since_tick;
  !acc

let nearest_centroids t view ~q =
  let p = t.p in
  let scored =
    Array.init p.nlist (fun c ->
        (View.sq_distance view (centroid_addr t c) q, c))
  in
  Array.sort compare scored;
  Array.to_list (Array.sub scored 0 p.nprobe) |> List.map snd

let check_query t q =
  if Bytes.length q <> t.p.dim then
    invalid_arg "Ivf: a query vector is dim bytes long"

let search t view ?(tick = fun _ -> ()) ~k q =
  check_query t q;
  let probes = nearest_centroids t view ~q in
  List.fold_left
    (fun acc list -> scan_list t view ~tick ~k ~q ~list acc)
    [] probes

let brute_force t view ~k q =
  check_query t q;
  let p = t.p in
  let acc = ref [] in
  for list = 0 to p.nlist - 1 do
    acc := scan_list t view ~tick:(fun _ -> ()) ~k ~q ~list !acc
  done;
  !acc
