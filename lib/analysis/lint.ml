(* adios-lint: domain-specific static analysis for this repository.

   The simulator's headline guarantee — a (workload seed, fault seed)
   pair replays byte-identically, and the trace checker can prove the
   yield-based page-fault protocol from the event stream alone — rests
   on conventions that the type checker does not enforce: all
   randomness flows through [Adios_engine.Rng], and every match over
   [Event.kind] names its constructors so a new event kind is a compile
   error wherever it is not handled. This pass walks the parsetrees of
   every [.ml] under [lib/] and [bin/] (syntax only, via compiler-libs;
   no typing environment needed) and turns each convention into a
   machine check; the typed rules ({!Typed_rules}) add a second layer
   over the [.cmt] artifacts.

   Per-file rules (scoped by path):
   - [determinism]    [Random.*], [Unix.gettimeofday], [Sys.time] and
                      [Hashtbl.hash] forbidden outside
                      [lib/engine/{rng,clock}.ml].
   - [event-wildcard] no wildcard/catch-all case in a match over
                      [Trace.Event.kind].
   - [poly-compare]   polymorphic [=]/[<>]/[compare] on syntactically
                      structural values (options, lists, tuples,
                      records, arrays) in [lib/{core,rdma,mem}].
   - [float-equal]    [=]/[<>] against a float literal.
   - [no-abort]       [failwith] / [assert false] in [lib/apps]: request
                      handlers must surface failures through
                      [App.Bad_request] -> [Request.errored].
   - [unused-shadow]  a binding immediately shadowed by a same-name
                      rebinding that does not use it.

   Suppressions: an allow-comment naming the rule (syntax in
   README.md, "Static analysis") on the finding's line or the line
   above silences that rule there; a trailing reason is mandatory
   ([suppress-reason] fires otherwise).

   Only syntactic matching is available at this layer, so the rules are
   heuristics tuned to this codebase's idioms; they aim for zero false
   positives on the tree as committed, with the escape hatch above for
   justified exceptions. *)

open Parsetree

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

(* Per-file syntactic rules, listed separately so the stale-suppression
   check knows which rules were live on a given run ([lint_source] runs
   only these; [run ~typed:true] adds the typed rules). *)
let syntactic_rules =
  [
    "determinism";
    "event-wildcard";
    "poly-compare";
    "float-equal";
    "no-abort";
    "unused-shadow";
  ]

let typed_rules = [ "zero-alloc"; "cycle-units"; "cmt-drift" ]

(* Meta rules report on the lint apparatus itself and are never
   suppressible (and never considered stale). *)
let meta_rules = [ "suppress-reason"; "stale-suppression"; "parse-error" ]

let rule_names = syntactic_rules @ typed_rules @ meta_rules

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.rule b.rule
    | c -> c)
  | c -> c

(* --- parsing helpers ---------------------------------------------------- *)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let parse_error_finding ~path exn =
  let line =
    match exn with
    | Syntaxerr.Error e -> line_of (Syntaxerr.location_of_error e)
    | _ -> 1
  in
  { file = path; line; rule = "parse-error"; msg = "file does not parse" }

let flatten lid = try Longident.flatten lid with _ -> []

let last_of lid =
  match List.rev (flatten lid) with [] -> None | x :: _ -> Some x

(* --- small AST queries -------------------------------------------------- *)

(* Constructor names appearing anywhere in one pattern. *)
let pattern_constructors p =
  let acc = ref [] in
  let pat it q =
    (match q.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> (
      match last_of txt with Some n -> acc := n :: !acc | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.pat it q
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

let expr_mentions name e =
  let found = ref false in
  let expr it x =
    (match x.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when String.equal n name ->
      found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Constructor names of the variant type [type_name]. *)
let variant_constructors ~type_name str =
  let acc = ref [] in
  let type_declaration it td =
    (if String.equal td.ptype_name.txt type_name then
       match td.ptype_kind with
       | Ptype_variant cds ->
         List.iter (fun cd -> acc := cd.pcd_name.txt :: !acc) cds
       | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it str;
  List.rev !acc

(* --- per-file rules ------------------------------------------------------ *)

let forbidden_determinism lid =
  match flatten lid with
  | "Random" :: _ :: _ | "Stdlib" :: "Random" :: _ ->
    Some
      "Random.* breaks seeded replay; thread an Adios_engine.Rng.t from the \
       config seed instead"
  | [ "Unix"; "gettimeofday" ] | [ "Stdlib"; "Unix"; "gettimeofday" ] ->
    Some "wall-clock time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
    Some "process time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ]
  | [ "Stdlib"; "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some
      "polymorphic Hashtbl.hash is not a stable function of the logical \
       value; derive an explicit integer key"
  | _ -> None

let determinism_exempt = [ "lib/engine/rng.ml"; "lib/engine/clock.ml" ]

(* clock.ml implements the unit conversions themselves: its whole job
   is mixing [*_us] floats with cycle counts, so the taint pass would
   flag every line of it. *)
let cycle_units_exempt = [ "lib/engine/clock.ml" ]

let lint_structure ~path ~event_kinds str =
  let findings = ref [] in
  let add loc rule msg =
    findings := { file = path; line = line_of loc; rule; msg } :: !findings
  in
  let det_scope = not (List.mem path determinism_exempt) in
  let apps_scope = String.starts_with ~prefix:"lib/apps/" path in
  let poly_scope =
    List.exists
      (fun p -> String.starts_with ~prefix:p path)
      [ "lib/core/"; "lib/rdma/"; "lib/mem/" ]
  in
  let is_float_const e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ },
          [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
      true
    | _ -> false
  in
  let structural e =
    match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
      match last_of txt with
      | Some ("None" | "Some" | "::" | "[]") -> true
      | _ -> false)
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
    | _ -> false
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } when det_scope -> (
      match forbidden_determinism txt with
      | Some msg -> add loc "determinism" msg
      | None -> ())
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident "failwith"; loc } when apps_scope ->
      add loc "no-abort"
        "failwith on a request-serving path aborts the simulation; raise \
         App.Bad_request (App.bad_request) so the reply carries \
         Request.errored"
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          pexp_loc;
          _ }
      when apps_scope ->
      add pexp_loc "no-abort"
        "assert false on a request-serving path aborts the simulation; raise \
         App.Bad_request (App.require for missing state) so the reply \
         carries Request.errored"
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
          [ (_, a); (_, b) ] ) ->
      if is_float_const a || is_float_const b then
        add e.pexp_loc "float-equal"
          (Printf.sprintf
             "(%s) against a float literal is an exact-bit comparison; test \
              against an epsilon or restructure the condition"
             op);
      if poly_scope && (structural a || structural b) then
        add e.pexp_loc "poly-compare"
          (Printf.sprintf
             "polymorphic (%s) on a structural value; use Option.is_none / \
              Option.is_some, a match, or a type-specific equal"
             op)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "compare"; _ }; _ },
          [ (_, a); (_, b) ] )
      when poly_scope && (structural a || structural b) ->
      add e.pexp_loc "poly-compare"
        "polymorphic compare on a structural value; use a type-specific \
         comparator"
    | Pexp_apply (_, args) when poly_scope ->
      List.iter
        (fun (_, arg) ->
          match arg.pexp_desc with
          | Pexp_ident
              { txt =
                  ( Longident.Lident "compare"
                  | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
                loc } ->
            add loc "poly-compare"
              "polymorphic compare passed as a function; pass a \
               type-specific comparator"
          | _ -> ())
        args
    | Pexp_let
        ( Asttypes.Nonrecursive,
          [ { pvb_pat = { ppat_desc = Ppat_var { txt = x; _ }; _ }; pvb_loc; _ } ],
          body ) -> (
      match body.pexp_desc with
      | Pexp_let
          ( Asttypes.Nonrecursive,
            [ { pvb_pat = { ppat_desc = Ppat_var { txt = y; _ }; _ };
                pvb_expr = e2;
                _ } ],
            _ )
        when String.equal x y && not (expr_mentions x e2) ->
        add pvb_loc "unused-shadow"
          (Printf.sprintf
             "binding of %s is dead: immediately shadowed by a rebinding \
              that does not use it"
             x)
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let cases it cs =
    (match event_kinds with
    | [] -> ()
    | kinds ->
      let names =
        List.concat_map (fun c -> pattern_constructors c.pc_lhs) cs
      in
      if List.exists (fun n -> List.mem n kinds) names then
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any | Ppat_var _ ->
              add c.pc_lhs.ppat_loc "event-wildcard"
                "wildcard case in a match over Trace.Event.kind: list the \
                 constructors so a new event kind is a compile error, not a \
                 silently untraced event"
            | _ -> ())
          cs);
    Ast_iterator.default_iterator.cases it cs
  in
  let it = { Ast_iterator.default_iterator with expr; cases } in
  it.structure it str;
  !findings

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
   on this run count — a [zero-alloc] suppression is not stale just
   because the typed pass was skipped. *)
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

(* --- per-file entry points ----------------------------------------------- *)

let lint_raw ~event_kinds ~path ~source =
  match parse_impl ~path source with
  | exception exn -> [ parse_error_finding ~path exn ]
  | str -> lint_structure ~path ~event_kinds str

let lint_source ?(event_kinds = []) ~path ~source () =
  let sups = scan_suppressions ~path source in
  let raw = lint_raw ~event_kinds ~path ~source in
  apply_suppressions sups
    (raw @ stale_suppressions ~path ~active:syntactic_rules sups raw)
  |> List.sort compare_findings

(* Typed per-file entry point for tests: type [source] in-process (so
   fixtures can carry local stub modules for [Sim]/[Clock] and their own
   [@zero_alloc]/[@cold] marks, and need no cmt) and run the typed rules
   on the result. Suppressions and staleness work exactly as in
   [lint_source]. *)
let lint_typed_source ~path ~source () =
  let sups = scan_suppressions ~path source in
  let raw =
    match Typed.type_source ~path ~source with
    | Error msg ->
      [ { file = path;
          line = 1;
          rule = "parse-error";
          msg = "file does not type: " ^ msg;
        } ]
    | Ok str ->
      let za =
        Typed_rules.zero_alloc ~file:path ~str ~resolve_unit:(fun _ -> None)
      in
      let cu =
        if List.mem path cycle_units_exempt then []
        else Typed_rules.cycle_units ~path ~str
      in
      za @ cu
  in
  apply_suppressions sups
    (raw
    @ stale_suppressions ~path ~active:[ "zero-alloc"; "cycle-units" ] sups raw
    )
  |> List.sort compare_findings

(* --- typed layer orchestration -------------------------------------------- *)

(* Run the typedtree rules over every file a cmt loads for. Returns the
   findings plus the files whose cmt actually loaded, so staleness
   knows where the typed rules were live. *)
let typed_pass ~build_dir sources =
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
             "no build directory at %s; run dune build @check before the \
              typed pass (or pass --no-typed)"
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
  let zero_alloc =
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
        Typed_rules.zero_alloc ~file:path ~str ~resolve_unit)
      loaded
  in
  let cycle_units =
    List.concat_map
      (fun (path, str) ->
        if List.mem path cycle_units_exempt then []
        else Typed_rules.cycle_units ~path ~str)
      loaded
  in
  ( !drift @ zero_alloc @ cycle_units,
    List.map fst loaded )

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

let run ?(typed = true) ?build_dir ~root () =
  let build_dir =
    match build_dir with Some d -> d | None -> default_build_dir root
  in
  let files = collect_files root in
  let sources =
    List.map (fun f -> (f, read_file (Filename.concat root f))) files
  in
  let event_kinds =
    match List.assoc_opt "lib/trace/event.ml" sources with
    | None -> []
    | Some src -> (
      match parse_impl ~path:"lib/trace/event.ml" src with
      | exception _ -> []
      | str -> variant_constructors ~type_name:"kind" str)
  in
  let per_file =
    List.concat_map
      (fun (path, source) -> lint_raw ~event_kinds ~path ~source)
      sources
  in
  let typed_findings, typed_loaded =
    if typed then typed_pass ~build_dir sources else ([], [])
  in
  let raw = per_file @ typed_findings in
  let final =
    List.concat_map
      (fun (path, source) ->
        let sups = scan_suppressions ~path source in
        let mine = List.filter (fun f -> String.equal f.file path) raw in
        let active =
          syntactic_rules
          @ (if typed then [ "cmt-drift" ] else [])
          @
          if typed && List.mem path typed_loaded then
            [ "zero-alloc"; "cycle-units" ]
          else []
        in
        apply_suppressions sups
          (mine @ stale_suppressions ~path ~active sups mine))
      sources
  in
  (List.length files, List.sort compare_findings final)
