let sub_bits = 6
let sub_count = 1 lsl sub_bits (* 64 *)

type t = {
  mutable counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable sum : int;
      (* an int, not a float: storing a float into a mutable field
         boxes it on every [record]. [sum] and [mean] convert it
         exactly while it stays below 2^53 cycles. *)
}

let create () =
  { counts = Array.make 256 0; total = 0; min_v = max_int; max_v = 0; sum = 0 }

(* [log2_byte.[b]]: highest set bit position of the byte [b] (0 for 0
   and 1). *)
let log2_byte =
  Bytes.init 256 (fun b ->
      let p = ref 0 in
      while b lsr (!p + 1) <> 0 do
        incr p
      done;
      Char.chr !p)

(* Highest set bit position of v (v > 0) in O(1): three halvings bring
   any 63-bit int below 2^8, and a byte table finishes. Local refs
   compile to registers, so nothing is allocated. *)
let log2_floor v =
  let v = ref v and p = ref 0 in
  if !v lsr 32 <> 0 then begin
    v := !v lsr 32;
    p := 32
  end;
  if !v lsr 16 <> 0 then begin
    v := !v lsr 16;
    p := !p + 16
  end;
  if !v lsr 8 <> 0 then begin
    v := !v lsr 8;
    p := !p + 8
  end;
  !p + Char.code (Bytes.unsafe_get log2_byte !v)

let index_of v =
  if v < sub_count then v
  else
    let p = log2_floor v in
    let sub = (v lsr (p - sub_bits)) - sub_count in
    (sub_count * (p - sub_bits + 1)) + sub

(* Midpoint of the bucket holding index i; inverse of [index_of] up to
   bucket resolution. *)
let value_of i =
  if i < sub_count then i
  else
    let block = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let p = block + sub_bits in
    let width = 1 lsl (p - sub_bits) in
    (1 lsl p) + (sub * width) + (width / 2)

(* Room for bucket [i]: the array grows only on a new magnitude, so
   the copy is amortised away. *)
let[@cold][@inline never] ensure t i =
  let n = Array.length t.counts in
  if i >= n then begin
    let n' = max (i + 1) (n * 2) in
    let counts = Array.make n' 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let[@zero_alloc] record_n t v n =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index_of v in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    t.sum <- t.sum + (v * n)
  end

let[@zero_alloc] record t v = record_n t v 1

let count t = t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t =
  if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total

let percentile t p =
  if t.total = 0 then 0
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target =
      int_of_float (ceil (p /. 100. *. float_of_int t.total))
    in
    let target = max 1 target in
    let acc = ref 0 and result = ref t.max_v and found = ref false in
    let i = ref 0 in
    let n = Array.length t.counts in
    while (not !found) && !i < n do
      acc := !acc + t.counts.(!i);
      if !acc >= target then begin
        result := value_of !i;
        found := true
      end;
      incr i
    done;
    min !result t.max_v
  end

let cdf t ?(points = 200) () =
  if t.total = 0 then []
  else begin
    let entries = ref [] in
    let acc = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          acc := !acc + c;
          entries := (value_of i, float_of_int !acc /. float_of_int t.total) :: !entries
        end)
      t.counts;
    let entries = Array.of_list (List.rev !entries) in
    let n = Array.length entries in
    if n <= points then Array.to_list entries
    else begin
      let out = ref [] in
      for j = points - 1 downto 0 do
        let i = j * (n - 1) / (points - 1) in
        out := entries.(i) :: !out
      done;
      !out
    end
  end

let count_le t v =
  if v < 0 || t.total = 0 then 0
  else begin
    let hi = index_of v in
    let acc = ref 0 in
    let n = Array.length t.counts in
    for i = 0 to min hi (n - 1) do
      acc := !acc + t.counts.(i)
    done;
    !acc
  end

let sum t = float_of_int t.sum

let merge_into ~dst src =
  Array.iteri
    (fun i c -> if c > 0 then record_n dst (value_of i) c)
    src.counts;
  (* keep exact extrema rather than bucket midpoints *)
  if src.total > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0;
  t.sum <- 0
