(* adios-lint: domain-specific static analysis for this repository.

   The simulator's headline guarantee — a (workload seed, fault seed)
   pair replays byte-identically, and the trace checker can prove the
   yield-based page-fault protocol from the event stream alone — rests
   on conventions that the type checker does not enforce: all
   randomness flows through [Adios_engine.Rng], and every match over
   [Event.kind] names its constructors so a new event kind is a compile
   error wherever it is not handled. This pass loads the typedtree of
   every [.ml] under [lib/] and [bin/] from the [.cmt] artifacts dune
   leaves under [_build] ({!Typed}) and turns each convention into a
   machine check ({!Typed_rules}).

   Rules (scoped by path):
   - [determinism]    [Random.*], [Unix.gettimeofday], [Sys.time] and
                      [Hashtbl.hash] forbidden outside
                      [lib/engine/{rng,clock}.ml].
   - [event-wildcard] no wildcard/catch-all case in a match over
                      [Trace.Event.kind].
   - [poly-compare]   polymorphic [=]/[<>]/[compare] on syntactically
                      structural values (options, lists, tuples,
                      records, arrays), or [compare] passed as a
                      function, in [lib/{core,rdma,mem}].
   - [float-equal]    [=]/[<>] against a float literal.
   - [no-abort]       [failwith] / [assert false] in [lib/apps]: request
                      handlers must surface failures through
                      [App.Bad_request] -> [Request.errored].
   - [zero-alloc]     no allocation in a [[@zero_alloc]] function.
   - [cycle-units]    no [*_us] microsecond value in a [Clock.cycles]
                      position, outside [lib/engine/clock.ml].
   - [cmt-drift]      every scanned file has a current [.cmt].

   A name is the standard library's only where it resolves there, so a
   local [compare] or [Random] module is not flagged. A dead binding is
   no rule of this pass: warning 26 makes it a build error under the
   root [dune]'s flags, and only [_]-prefixed names, which declare
   themselves unused, escape it.

   Suppressions: an allow-comment naming the rule (syntax in
   README.md, "Static analysis") on the finding's line or the line
   above silences that rule there; a trailing reason is mandatory
   ([suppress-reason] fires otherwise).

   [poly-compare] still judges an operand structural by its syntax, so
   the rules aim for zero false positives on the tree as committed,
   with the escape hatch above for justified exceptions. *)

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

(* The rules that run over one unit's typedtree, listed so the
   stale-suppression check knows which rules were live on a file: none
   where its cmt did not load. *)
let unit_rules =
  [
    "determinism";
    "event-wildcard";
    "poly-compare";
    "float-equal";
    "no-abort";
    "zero-alloc";
    "cycle-units";
  ]

(* Meta rules report on the lint apparatus itself and are never
   suppressible (and never considered stale). *)
let meta_rules = [ "suppress-reason"; "stale-suppression"; "parse-error" ]

let rule_names = unit_rules @ [ "cmt-drift" ] @ meta_rules

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.rule b.rule
    | c -> c)
  | c -> c

(* --- suppressions -------------------------------------------------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

(* The needle is assembled so this file's own source never matches it. *)
let needle = "lint:" ^ " allow"

let scan_suppressions ~path source =
  let sups = ref [] and finds = ref [] in
  let add_find line msg =
    finds := { file = path; line; rule = "suppress-reason"; msg } :: !finds
  in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match find_sub line needle with
      | None -> ()
      | Some idx ->
        let start = idx + String.length needle in
        let rest = String.sub line start (String.length line - start) in
        let rest =
          match find_sub rest "*)" with
          | Some j -> String.sub rest 0 j
          | None -> rest
        in
        let rules_part, reason =
          match find_sub rest "--" with
          | Some j ->
            ( String.sub rest 0 j,
              String.trim
                (String.sub rest (j + 2) (String.length rest - j - 2)) )
          | None -> (rest, "")
        in
        let rules =
          String.split_on_char ' ' rules_part
          |> List.concat_map (String.split_on_char ',')
          |> List.map String.trim
          |> List.filter (fun s -> not (String.equal s ""))
        in
        let unknown =
          List.filter (fun r -> not (List.mem r rule_names)) rules
        in
        List.iter
          (fun r -> add_find ln (Printf.sprintf "unknown rule %S in suppression" r))
          unknown;
        if rules = [] then
          add_find ln "suppression names no rule"
        else if String.equal reason "" then
          add_find ln
            "suppression without a reason: state why after a -- separator"
        else if unknown = [] then sups := (ln, rules) :: !sups)
    (String.split_on_char '\n' source);
  (!sups, !finds)

let apply_suppressions (sups, sup_finds) findings =
  let kept =
    List.filter
      (fun f ->
        List.mem f.rule meta_rules
        || not
             (List.exists
                (fun (ln, rules) ->
                  List.mem f.rule rules && (ln = f.line || ln + 1 = f.line))
                sups))
      findings
  in
  kept @ sup_finds

(* A suppression that no longer matches a finding is debt: the code it
   excused was fixed or moved, and the comment now silently licenses a
   future regression on that line. Only rules that were actually live
   on this file count — a [zero-alloc] suppression is not stale just
   because the file's cmt did not load. *)
let stale_suppressions ~path ~active (sups, _) raw =
  List.concat_map
    (fun (ln, rules) ->
      List.filter_map
        (fun r ->
          if List.mem r meta_rules || not (List.mem r active) then None
          else if
            List.exists
              (fun f ->
                String.equal f.rule r
                && String.equal f.file path
                && (f.line = ln || f.line = ln + 1))
              raw
          then None
          else
            Some
              { file = path;
                line = ln;
                rule = "stale-suppression";
                msg =
                  Printf.sprintf
                    "suppression for %s matches no finding on this line; \
                     delete it or re-justify it"
                    r;
              })
        rules)
    sups

(* --- per-unit rules ------------------------------------------------------- *)

(* clock.ml implements the unit conversions themselves: its whole job
   is mixing [*_us] floats with cycle counts, so the taint pass would
   flag every line of it. *)
let cycle_units_exempt = [ "lib/engine/clock.ml" ]

let lint_unit ~path ~str ~resolve_unit =
  Typed_rules.conventions ~path ~str
  @ Typed_rules.zero_alloc ~file:path ~str ~resolve_unit
  @
  if List.mem path cycle_units_exempt then []
  else Typed_rules.cycle_units ~path ~str

(* Per-file entry point for tests: type [source] in-process (so
   fixtures can carry local stub modules for [Sim]/[Clock]/[Event] and
   their own [@zero_alloc]/[@cold] marks, and need no cmt) and run every
   per-unit rule on the result. A source that does not type ran no rule,
   so none of its suppressions is stale. *)
let lint_source ~path ~source () =
  let sups = scan_suppressions ~path source in
  let raw, active =
    match Typed.type_source ~path ~source with
    | Error msg ->
      ( [ { file = path;
            line = 1;
            rule = "parse-error";
            msg = "file does not type: " ^ msg;
          } ],
        [] )
    | Ok str -> (lint_unit ~path ~str ~resolve_unit:(fun _ -> None), unit_rules)
  in
  apply_suppressions sups (raw @ stale_suppressions ~path ~active sups raw)
  |> List.sort compare_findings

(* --- whole-repo pass ------------------------------------------------------ *)

(* Run the per-unit rules over every file a cmt loads for. Returns the
   findings plus the files whose cmt actually loaded, so staleness
   knows where the rules were live. *)
let unit_pass ~build_dir sources =
  let index = Typed.load_index ~build_dir in
  let drift = ref [] and loaded = ref [] in
  List.iter
    (fun (path, source) ->
      let fail msg =
        drift := { file = path; line = 1; rule = "cmt-drift"; msg } :: !drift
      in
      match Typed.lookup index ~path ~source with
      | Typed.Loaded str -> loaded := (path, str) :: !loaded
      | Typed.No_build_dir ->
        fail
          (Printf.sprintf
             "no build directory at %s; run dune build @check before the lint"
             build_dir)
      | Typed.No_cmt ->
        fail
          "no .cmt artifact for this file; run dune build @check (plain \
           builds skip executable cmts)"
      | Typed.Stale ->
        fail
          "the .cmt was compiled from different source (stale build); rerun \
           dune build @check"
      | Typed.Unreadable msg ->
        fail (Printf.sprintf "unreadable .cmt artifact: %s" msg))
    sources;
  let loaded = List.rev !loaded in
  let views : (string, Typed_rules.unit_view) Hashtbl.t = Hashtbl.create 8 in
  let view ~file str =
    match Hashtbl.find_opt views file with
    | Some v -> v
    | None ->
      let v =
        { Typed_rules.uv_file = file;
          uv_bindings = Typed_rules.structure_bindings str;
        }
      in
      Hashtbl.replace views file v;
      v
  in
  let per_unit =
    List.concat_map
      (fun (path, str) ->
        let home = Typed.cmt_dir index ~path in
        (* descent stays within the unit's own library: a unit is
           resolvable iff dune put its cmt in the same .objs dir *)
        let resolve_unit modname =
          match (Typed.find_unit index ~modname, home) with
          | Some info, Some h
            when String.equal (Filename.dirname info.Typed.cmt_path) h ->
            Some (view ~file:info.Typed.src info.Typed.structure)
          | _ -> None
        in
        lint_unit ~path ~str ~resolve_unit)
      loaded
  in
  (!drift @ per_unit, List.map fst loaded)

(* --- whole-repo driver ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let collect_files root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    Array.to_list (Sys.readdir abs)
    |> List.sort String.compare
    |> List.iter (fun name ->
           let rel' = rel ^ "/" ^ name in
           let abs' = Filename.concat root rel' in
           if Sys.is_directory abs' then begin
             if (not (String.equal name "_build")) && name.[0] <> '.' then
               walk rel'
           end
           else if Filename.check_suffix name ".ml" then acc := rel' :: !acc)
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    [ "lib"; "bin" ];
  List.sort String.compare !acc

let default_build_dir root =
  Filename.concat root (Filename.concat "_build" "default")

let run ?build_dir ~root () =
  let build_dir =
    match build_dir with Some d -> d | None -> default_build_dir root
  in
  let files = collect_files root in
  let sources =
    List.map (fun f -> (f, read_file (Filename.concat root f))) files
  in
  let raw, loaded = unit_pass ~build_dir sources in
  let final =
    List.concat_map
      (fun (path, source) ->
        let sups = scan_suppressions ~path source in
        (* a [zero-alloc] finding lands in the file of the callee its
           descent reached, so group findings by file, not by unit *)
        let mine = List.filter (fun f -> String.equal f.file path) raw in
        let active =
          "cmt-drift" :: (if List.mem path loaded then unit_rules else [])
        in
        apply_suppressions sups
          (mine @ stale_suppressions ~path ~active sups mine))
      sources
  in
  (List.length files, List.sort compare_findings final)
