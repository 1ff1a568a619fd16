(* pcprof: where a simulator run spends its host CPU time.

   Runs one named golden spec (the names adios_sweep --spec takes) in
   this process at jobs 1, while an ITIMER_PROF timer samples the
   interrupted instruction pointer every millisecond of CPU time (the
   kernel rounds that up to its tick). Interval timers do not survive
   fork, so a forked sweep worker would go unsampled; jobs 1 keeps
   every point in the sampled process. The samples are attributed to
   functions through `nm -n` of this executable, which is linked
   without PIE so that run-time and link-time addresses agree, and to
   source files and lines through `addr2line`, which sees through
   inlining. The functions, files and lines with the most samples are
   printed.

     dune exec tools/pcprof/pcprof.exe -- --spec array-reduced --requests 2000

   OCaml symbols print as dotted paths with the compiler's numeric
   stamp dropped ([Adios_engine.Sim.wheel_add]); runtime and C symbols
   print as they are. Builds on Linux x86-64 only (see dune). *)

module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep

external start : int -> int -> unit = "pcprof_start"
external stop : unit -> unit = "pcprof_stop"
external samples : unit -> int array = "pcprof_samples"
external missed : unit -> int = "pcprof_missed"

let usage = "pcprof --spec NAME [--requests N] [--seed N]"
let interval_us = 1000
let top = 30

(* --- symbols --------------------------------------------------------------- *)

let outside = "[outside the executable]"

(* The sized text symbols of [exe] (functions), ascending by address,
   as parallel arrays of addresses, sizes and names. Unsized ones are
   section markers such as a module's [code_end], which shares its
   address with the next module's first function. *)
let text_symbols exe =
  let ic = Unix.open_process_in ("nm -n -S --defined-only " ^ Filename.quote exe) in
  let syms = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ addr; size; ("T" | "t" | "W" | "w" | "i"); name ] ->
         let size = int_of_string ("0x" ^ size) in
         if size > 0 then syms := (int_of_string ("0x" ^ addr), size, name) :: !syms
       | _ -> ()
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("pcprof: nm -n -S " ^ exe ^ " failed"));
  let syms = Array.of_list (List.rev !syms) in
  if Array.length syms = 0 then failwith ("pcprof: no text symbols in " ^ exe);
  ( Array.map (fun (a, _, _) -> a) syms,
    Array.map (fun (_, s, _) -> s) syms,
    Array.map (fun (_, _, n) -> n) syms )

(* [camlAdios_engine__Sim__wheel_add_512] -> [Adios_engine.Sim.wheel_add] *)
let demangle s =
  let n = String.length s in
  if n > 4 && String.sub s 0 4 = "caml" && s.[4] >= 'A' && s.[4] <= 'Z' then begin
    let body = String.sub s 4 (n - 4) in
    let body =
      match String.rindex_opt body '_' with
      | Some i
        when i + 1 < String.length body
             && String.for_all
                  (fun c -> c >= '0' && c <= '9')
                  (String.sub body (i + 1) (String.length body - i - 1)) ->
        String.sub body 0 i
      | _ -> body
    in
    let b = Buffer.create (String.length body) in
    let i = ref 0 in
    while !i < String.length body do
      if !i + 1 < String.length body && body.[!i] = '_' && body.[!i + 1] = '_'
      then begin
        Buffer.add_char b '.';
        i := !i + 2
      end
      else begin
        Buffer.add_char b body.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end
  else s

(* The function holding [pc]: the last symbol at or below it, if [pc]
   lies within its size. Anything else ran outside the executable's
   functions: in a shared library, say. *)
let locate addrs sizes names pc =
  if pc < addrs.(0) then outside
  else begin
    let lo = ref 0 and hi = ref (Array.length addrs - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if addrs.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    if pc < addrs.(!lo) + sizes.(!lo) then demangle names.(!lo) else outside
  end

(* --- source lines ------------------------------------------------------------ *)

(* A location relative to the checkout ([lib/engine/sim.ml:101]) for
   this repository's code, the last two path components
   ([runtime/memory.c:134]) for the compiler's runtime and stdlib, and
   ["??"] where there is no line information. *)
let shorten loc =
  let build_root = "/workspace_root/" in
  if String.starts_with ~prefix:"??" loc then "??"
  else if String.starts_with ~prefix:build_root loc then begin
    let n = String.length build_root in
    String.sub loc n (String.length loc - n)
  end
  else
    match List.rev (String.split_on_char '/' loc) with
    | file :: dir :: _ :: _ -> dir ^ "/" ^ file
    | _ -> loc

(* The release build inlines across modules, so most of [Sim]'s code
   runs inside its callers' symbols ([Runner.run_inner] holds the event
   loop). The line tables that [-g] writes still name the source each
   instruction came from: [addr2line] maps every distinct sampled
   address to its ["file:line"], shortened as above. *)
let source_lines exe pcs =
  let distinct = List.sort_uniq compare (Array.to_list pcs) in
  let where = Hashtbl.create 1024 in
  let rec chunks = function
    | [] -> ()
    | l ->
      let batch = List.filteri (fun i _ -> i < 256) l in
      let rest = List.filteri (fun i _ -> i >= 256) l in
      let args = List.map (Printf.sprintf "0x%x") batch in
      let ic =
        Unix.open_process_args_in "addr2line"
          (Array.of_list ("addr2line" :: "-e" :: exe :: args))
      in
      List.iter
        (fun pc ->
          let loc = try input_line ic with End_of_file -> "??:0" in
          Hashtbl.replace where pc (shorten loc))
        batch;
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith "pcprof: addr2line failed");
      chunks rest
  in
  chunks distinct;
  Array.map (Hashtbl.find where) pcs

(* ["lib/engine/sim.ml:101"] -> ["lib/engine/sim.ml"] *)
let file_of loc =
  match String.rindex_opt loc ':' with Some i -> String.sub loc 0 i | None -> loc

(* --- report ---------------------------------------------------------------- *)

let tally keys =
  let h = Hashtbl.create 256 in
  Array.iter
    (fun k ->
      Hashtbl.replace h k (1 + Option.value (Hashtbl.find_opt h k) ~default:0))
    keys;
  List.sort
    (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [])

let print_table ~title ~total rows =
  Printf.printf "\n%8s %7s  %s\n" "samples" "%" title;
  List.iteri
    (fun i (k, n) ->
      if i < top then
        Printf.printf "%8d %6.2f%%  %s\n" n
          (100. *. float_of_int n /. float_of_int total)
          k)
    rows

let () =
  let spec_name = ref "" and requests = ref 0 and seed = ref (-1) in
  Arg.parse
    [
      ("--spec", Arg.Set_string spec_name, "NAME golden spec to run");
      ("--requests", Arg.Set_int requests, "N requests per point");
      ("--seed", Arg.Set_int seed, "N sweep seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Spec.reduced_by_name !spec_name with
    | Some s -> s
    | None ->
      Printf.eprintf "pcprof: unknown spec %S (valid: %s)\n%s\n" !spec_name
        (String.concat ", "
           (List.map (fun (s : Spec.t) -> s.Spec.name) Spec.all_goldens))
        usage;
      exit 2
  in
  let spec = if !requests > 0 then { spec with Spec.requests = !requests } else spec in
  let spec = if !seed >= 0 then { spec with Spec.seed = !seed } else spec in
  let addrs, sizes, names = text_symbols Sys.executable_name in
  start interval_us (1 lsl 20);
  ignore (Sweep.run ~jobs:1 spec);
  stop ();
  let pcs = samples () in
  let total = Array.length pcs in
  Printf.printf
    "pcprof: %s, %d points of %d requests, seed %d: %d samples (%d missed)\n"
    spec.Spec.name (Spec.point_count spec) spec.Spec.requests spec.Spec.seed
    total (missed ());
  if total > 0 then begin
    let funcs = Array.map (locate addrs sizes names) pcs in
    print_table ~title:"function" ~total (tally funcs);
    match source_lines Sys.executable_name pcs with
    | lines ->
      print_table ~title:"source file" ~total (tally (Array.map file_of lines));
      print_table ~title:"source line" ~total (tally lines)
    | exception (Failure msg | Unix.Unix_error (_, msg, _)) ->
      Printf.printf "\n(no source tables: %s)\n" msg
  end
