type t = {
  mutable gauges : (string * (unit -> float)) list; (* reverse order *)
  mutable samples : (int * float array) list; (* reverse order *)
  mutable count : int;
}

let create () = { gauges = []; samples = []; count = 0 }

let add_gauge t ~name f =
  if t.count > 0 then
    invalid_arg "Timeline.add_gauge: sampling already started";
  if List.mem_assoc name t.gauges then
    invalid_arg ("Timeline.add_gauge: duplicate series " ^ name);
  t.gauges <- (name, f) :: t.gauges

let names t = List.rev_map fst t.gauges

let sample t ~ts =
  let n = List.length t.gauges in
  let row = Array.make n 0. in
  (* gauges list is reversed: fill the array from the back *)
  List.iteri (fun i (_, g) -> row.(n - 1 - i) <- g ()) t.gauges;
  t.samples <- (ts, row) :: t.samples;
  t.count <- t.count + 1

let length t = t.count

let to_rows t = List.rev t.samples

(* RFC 4180: a field holding a comma, a double quote or a line break is
   quoted, with each inner quote doubled. Series names carry
   comma-separated labels ([name{system=Adios,cpu=0}]); row values never
   need it. *)
let needs_quotes = function ',' | '"' | '\n' | '\r' -> true | _ -> false

let quote field =
  if String.exists needs_quotes field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let to_csv ?(cycles_per_us = 2000) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "," ("ts_cycles" :: "ts_us" :: List.map quote (names t)));
  Buffer.add_char buf '\n';
  List.iter
    (fun (ts, row) ->
      Buffer.add_string buf (string_of_int ts);
      Buffer.add_string buf
        (Printf.sprintf ",%.3f" (float_of_int ts /. float_of_int cycles_per_us));
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%g" v)) row;
      Buffer.add_char buf '\n')
    (to_rows t);
  Buffer.contents buf

let write_csv ?cycles_per_us ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv ?cycles_per_us t))
