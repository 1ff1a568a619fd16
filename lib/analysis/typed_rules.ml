(* Typedtree-backed project rules. These run over the [.cmt] artifacts
   [Typed] loads (or over fixtures typed in-process), so each rule knows
   which definition a name resolves to and which type a constructor
   builds.

   - [conventions]: the per-file rules [determinism], [event-wildcard],
     [poly-compare], [float-equal] and [no-abort] (catalogue and scopes
     in lint.ml's header). A name counts only when it resolves to the
     library's own definition: [int] under [let open Random] is
     [Random.int], and a module-local [compare] is not Stdlib's. A case
     list is over [Event.kind] when one of its patterns holds a
     constructor whose result type is that type, whatever the
     constructor's name.

   - [zero-alloc]: a function marked [let[@zero_alloc] f ...] must
     not allocate. The walk flags every allocating construct the
     compiler cannot erase — closures, boxed constructors, tuples,
     records, array/list literals, known-allocating stdlib calls,
     partial applications, boxed float results — and descends one level
     into same-library callees so a hot function cannot outsource its
     allocation to a helper. Error paths ([raise]/[failwith]/[assert])
     and callees marked [let[@cold] g ...] (slow paths that allocate by
     design) are exempt. The compiler ignores both attributes, so a
     [@cold] binding must also carry [@inline never]: without it the
     optimised build copies the slow path into its hot callers.

   - [cycle-units]: time flows through this codebase in two unit
     systems — microsecond floats at the configuration surface
     (fields and variables named [*_us]) and integer [Clock.cycles]
     inside the engine. The only legal crossings are [Clock.of_us] and
     friends. A taint pass seeds from [*_us] names and float literals,
     propagates through arithmetic and int/float conversions, treats
     the [Clock] converters (and toplevel aliases of them, e.g.
     params.ml's [let c = Clock.of_us]) as sanitizers, and reports
     tainted values reaching a cycles position: a [schedule_at]/
     [timer_at] argument, a [~delay:]/[~time:] label, or arithmetic
     mixed with a [cycles]-typed operand. *)

open Typedtree

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let ends_with_us name = String.ends_with ~suffix:"_us" name

(* Last component and (one-step) qualifier of a path, without assuming
   the full shape of [Path.t] across compiler versions. *)
let path_name p = Path.last p

let path_qual p =
  match p with Path.Pdot (q, _) -> Some (Path.last q) | _ -> None

(* The head unit and the dotted tail of a path, for cross-module
   resolution: [Adios_rdma.Verbs.Cq.push] gives ("Adios_rdma",
   ["Verbs"; "Cq"; "push"]). Returns [None] for functor applications
   and local (non-unit) heads. *)
let path_parts p =
  let rec go p acc =
    match p with
    | Path.Pdot (q, n) -> go q (n :: acc)
    | Path.Pident id ->
      if Ident.persistent id || Ident.global id then Some (Ident.name id, acc)
      else None
    | _ -> None
  in
  go p []

(* A value's path from the compilation unit that defines it, with the
   [Stdlib] prefix folded away: [Random.int], [Stdlib.Random.int] and
   [int] under [let open Random] all give ["Random"; "int"], and
   [Unix.gettimeofday] gives ["Unix"; "gettimeofday"]. [None] for a
   path that starts at a local definition ([module Random = struct ...
   end], [let compare = ...]). *)
let library_path p =
  match path_parts p with
  | Some ("Stdlib", tail) -> Some tail
  | Some (unit, tail) -> Some (unit :: tail)
  | None -> None

let library_ident e =
  match e.exp_desc with Texp_ident (p, _, _) -> library_path p | _ -> None

(* --- conventions ---------------------------------------------------------- *)

let determinism_message = function
  | "Random" :: _ :: _ ->
    Some
      "Random.* breaks seeded replay; thread an Adios_engine.Rng.t from the \
       config seed instead"
  | [ "Unix"; "gettimeofday" ] ->
    Some "wall-clock time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Sys"; "time" ] ->
    Some "process time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some
      "polymorphic Hashtbl.hash is not a stable function of the logical \
       value; derive an explicit integer key"
  | _ -> None

let determinism_exempt = [ "lib/engine/rng.ml"; "lib/engine/clock.ml" ]

(* [Event.kind] seen from anywhere: [Adios_trace.Event.kind] from other
   units, a fixture's [Event.kind] stub, or plain [kind] inside
   event.ml itself. Context's own [kind] is not it. *)
let is_event_kind ~file ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    String.equal (Path.last p) "kind"
    &&
    match p with
    | Path.Pdot (q, _) ->
      let m = Path.last q in
      String.equal m "Event" || String.ends_with ~suffix:"__Event" m
    | Path.Pident _ -> String.equal file "lib/trace/event.ml"
    | _ -> false)
  | _ -> false

let builds_event_kind ~file p =
  let found = ref false in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it q ->
    (match q.pat_desc with
    | Tpat_construct (_, cd, _, _) when is_event_kind ~file cd.Types.cstr_res
      ->
      found := true
    | _ -> ());
    Tast_iterator.default_iterator.pat it q
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.pat it p;
  !found

let rec is_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_value v -> is_catch_all (v :> pattern)
  | _ -> false

(* The parser folds [-0.5] and [-. 0.5] into the literal. *)
let is_float_literal e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) -> true
  | _ -> false

(* Structural by its syntax: the value's type alone would flag every
   comparison of two options, which this rule leaves to review. *)
let is_structural e =
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> (
    match cd.Types.cstr_name with
    | "None" | "Some" | "::" | "[]" -> true
    | _ -> false)
  | Texp_tuple _ | Texp_record _ | Texp_array _ -> true
  | _ -> false

let conventions ~path ~(str : structure) : Finding.t list =
  let findings = ref [] in
  let add (loc : Location.t) rule msg =
    findings := { Finding.file = path; line = line_of loc; rule; msg } :: !findings
  in
  let det_scope = not (List.mem path determinism_exempt) in
  let apps_scope = String.starts_with ~prefix:"lib/apps/" path in
  let poly_scope =
    List.exists
      (fun p -> String.starts_with ~prefix:p path)
      [ "lib/core/"; "lib/rdma/"; "lib/mem/" ]
  in
  let cases : type k. k case list -> unit =
   fun cs ->
    if List.exists (fun c -> builds_event_kind ~file:path c.c_lhs) cs then
      List.iter
        (fun c ->
          if is_catch_all c.c_lhs then
            add c.c_lhs.pat_loc "event-wildcard"
              "wildcard case in a match over Trace.Event.kind: list the \
               constructors so a new event kind is a compile error, not a \
               silently untraced event")
        cs
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match library_path p with
      | Some [ "failwith" ] when apps_scope ->
        add e.exp_loc "no-abort"
          "failwith on a request-serving path aborts the simulation; raise \
           App.Bad_request (App.bad_request) so the reply carries \
           Request.errored"
      | Some parts when det_scope -> (
        match determinism_message parts with
        | Some msg -> add e.exp_loc "determinism" msg
        | None -> ())
      | _ -> ())
    | Texp_assert ({ exp_desc = Texp_construct (_, cd, []); _ }, _)
      when apps_scope && String.equal cd.Types.cstr_name "false" ->
      add e.exp_loc "no-abort"
        "assert false on a request-serving path aborts the simulation; raise \
         App.Bad_request (App.require for missing state) so the reply \
         carries Request.errored"
    | Texp_apply (f, args) -> (
      match (library_ident f, args) with
      | Some [ (("=" | "<>") as op) ], [ (_, Some a); (_, Some b) ] ->
        if is_float_literal a || is_float_literal b then
          add e.exp_loc "float-equal"
            (Printf.sprintf
               "(%s) against a float literal is an exact-bit comparison; \
                test against an epsilon or restructure the condition"
               op);
        if poly_scope && (is_structural a || is_structural b) then
          add e.exp_loc "poly-compare"
            (Printf.sprintf
               "polymorphic (%s) on a structural value; use Option.is_none / \
                Option.is_some, a match, or a type-specific equal"
               op)
      | Some [ "compare" ], [ (_, Some a); (_, Some b) ]
        when poly_scope && (is_structural a || is_structural b) ->
        add e.exp_loc "poly-compare"
          "polymorphic compare on a structural value; use a type-specific \
           comparator"
      | _ when poly_scope ->
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some a -> (
              match library_ident a with
              | Some [ "compare" ] ->
                add a.exp_loc "poly-compare"
                  "polymorphic compare passed as a function; pass a \
                   type-specific comparator"
              | _ -> ())
            | None -> ())
          args
      | _ -> ())
    | Texp_function { cases = cs; _ } -> cases cs
    | Texp_match (_, cs, _) -> cases cs
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !findings

(* --- toplevel bindings of a unit ----------------------------------------- *)

type binding = {
  dotted : string;
  ident : Ident.t;
  expr : expression;
  hot : bool;  (** marked [@zero_alloc] *)
  cold : bool;  (** marked [@cold] *)
  inline_never : bool;  (** marked [@inline never] *)
  line : int;
}

let has_attribute name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* [@inline never] (or [@ocaml.inline never]) *)
let has_inline_never (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      (String.equal a.attr_name.txt "inline"
      || String.equal a.attr_name.txt "ocaml.inline")
      &&
      match a.attr_payload with
      | Parsetree.PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident "never"; _ } -> true
        | _ -> false)
      | _ -> false)
    attrs

let structure_bindings str =
  let acc = ref [] in
  let rec go prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) ->
                acc :=
                  { dotted = prefix ^ Ident.name id;
                    ident = id;
                    expr = vb.vb_expr;
                    hot = has_attribute "zero_alloc" vb.vb_attributes;
                    cold = has_attribute "cold" vb.vb_attributes;
                    inline_never = has_inline_never vb.vb_attributes;
                    line = line_of vb.vb_loc;
                  }
                  :: !acc
              | _ -> ())
            vbs
        | Tstr_module mb -> (
          let rec peel_mod m =
            match m.mod_desc with
            | Tmod_structure s -> Some s
            | Tmod_constraint (m', _, _, _) -> peel_mod m'
            | _ -> None
          in
          match (mb.mb_id, peel_mod mb.mb_expr) with
          | Some id, Some s -> go (prefix ^ Ident.name id ^ ".") s
          | _ -> ())
        | _ -> ())
      str.str_items
  in
  go "" str;
  List.rev !acc

let find_by_ident bindings id =
  List.find_opt (fun b -> Ident.same b.ident id) bindings

let find_by_dotted bindings dotted =
  List.find_opt (fun b -> String.equal b.dotted dotted) bindings

(* --- type queries --------------------------------------------------------- *)

let is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

let rec arrow_arity ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, rest, _) -> 1 + arrow_arity rest
  | Types.Tpoly (ty, _) -> arrow_arity ty
  | _ -> 0

(* The callee's declared arity. The generic scheme ('a array -> int ->
   'a for [Array.unsafe_get]) is what distinguishes reading a stored
   closure (result instantiates 'a to an arrow) from an actual partial
   application, so prefer the identifier's value description over the
   instantiated [exp_type]. *)
let callee_arity f =
  match f.exp_desc with
  | Texp_ident (_, _, vd) -> arrow_arity vd.Types.val_type
  | _ -> arrow_arity f.exp_type

(* [Clock.cycles] is an alias of [int], but the alias survives in
   [exp_type] unexpanded, which is exactly what lets a units check
   exist at all for an int-on-int engine. *)
let is_cycles_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> String.equal (Path.last p) "cycles"
  | _ -> false

(* --- zero-alloc ----------------------------------------------------------- *)

(* Callees that never return (or only run on error paths): their whole
   subtree is exempt, allocating an exception or a message there is
   fine. *)
let error_path_names =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "assert_failure" ]

(* Applications known to allocate, keyed by (qualifier, name). The
   table is deny-list, not proof: a helper it misses is still caught
   one level down by descent, or by the constructs its body uses. *)
let allocating_application qual name =
  let q = Option.value qual ~default:"" in
  match (q, name) with
  | _, ("@" | "^" | "^^") -> Some "list/string append allocates"
  | ( "List",
      ( "append" | "concat" | "cons" | "map" | "mapi" | "map2" | "rev"
      | "rev_append" | "rev_map" | "init" | "filter" | "filteri"
      | "filter_map" | "concat_map" | "of_seq" | "to_seq" | "sort"
      | "stable_sort" | "fast_sort" | "merge" | "split" | "combine"
      | "partition" | "flatten" | "find_opt" | "assoc_opt" ) ) ->
    Some ("List." ^ name ^ " allocates")
  | ( "Array",
      ( "make" | "create_float" | "init" | "append" | "concat" | "sub"
      | "copy" | "of_list" | "to_list" | "make_matrix" | "map" | "mapi"
      | "to_seq" | "of_seq" | "split" | "combine" ) ) ->
    Some ("Array." ^ name ^ " allocates")
  | ( "String",
      ( "make" | "init" | "sub" | "concat" | "cat" | "escaped"
      | "uppercase_ascii" | "lowercase_ascii" | "capitalize_ascii" | "map"
      | "mapi" | "of_seq" | "to_seq" | "split_on_char" ) ) ->
    Some ("String." ^ name ^ " allocates")
  | ( "Bytes",
      ( "make" | "create" | "sub" | "copy" | "of_string" | "to_string"
      | "extend" | "cat" | "concat" ) ) ->
    Some ("Bytes." ^ name ^ " allocates")
  | (("Printf" | "Format" | "Fmt"), _) ->
    Some (q ^ "." ^ name ^ " allocates (formatted output)")
  | "Buffer", ("create" | "contents" | "to_bytes") ->
    Some ("Buffer." ^ name ^ " allocates")
  | ( "Queue",
      ("create" | "push" | "add" | "copy" | "peek_opt" | "take_opt" | "to_seq")
    ) ->
    Some ("Queue." ^ name ^ " allocates")
  | ( "Hashtbl",
      ( "create" | "add" | "replace" | "copy" | "to_seq" | "find_opt"
      | "find_all" ) ) ->
    Some ("Hashtbl." ^ name ^ " allocates")
  | "Option", ("some" | "map" | "bind" | "join" | "to_list" | "to_seq") ->
    Some ("Option." ^ name ^ " allocates")
  | ( _,
      ( "string_of_int" | "string_of_float" | "string_of_bool"
      | "float_of_string" ) ) ->
    Some (name ^ " allocates")
  | _ -> None

let head_path e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

(* Does this expression allocate, ignoring its subexpressions? *)
let alloc_reason e =
  match e.exp_desc with
  | Texp_function _ -> Some "closure allocated"
  | Texp_construct (_, cd, _ :: _) ->
    Some
      (Printf.sprintf "boxed constructor %s allocated" cd.Types.cstr_name)
  | Texp_tuple _ -> Some "tuple allocated"
  | Texp_record _ -> Some "record allocated"
  | Texp_array (_ :: _) -> Some "array literal allocated"
  | Texp_variant (_, Some _) -> Some "polymorphic variant allocated"
  | Texp_lazy _ -> Some "lazy block allocated"
  | Texp_object _ -> Some "object allocated"
  | Texp_pack _ -> Some "first-class module allocated"
  | Texp_letop _ -> Some "binding operator allocates a closure"
  | Texp_field (_, _, lbl)
    when (match lbl.Types.lbl_repres with
         | Types.Record_float -> true
         | _ -> false) ->
    Some
      (Printf.sprintf "reading float field %s from a flat float record boxes"
         lbl.Types.lbl_name)
  | Texp_apply (f, args) -> (
    let by_table =
      match head_path f with
      | Some p -> allocating_application (path_qual p) (path_name p)
      | None -> None
    in
    match by_table with
    | Some _ as r -> r
    | None ->
      (* Partial application builds a closure. An application that
         merely *returns* a function (reading a stored callback out of
         an array, say) is not one: compare the arguments supplied
         against the callee's arrow arity. *)
      if
        List.exists (fun (_, a) -> Option.is_none a) args
        || List.length args < callee_arity f
      then Some "partial application allocates a closure"
      else if is_float_type e.exp_type then
        Some "boxed float result (the engine's hot paths are integer-only)"
      else None)
  | _ -> None

(* Subtrees we do not walk: error paths terminate the simulation, their
   allocations are irrelevant to steady-state throughput. *)
let is_error_subtree e =
  match e.exp_desc with
  | Texp_assert _ -> true
  | Texp_apply (f, _) -> (
    match head_path f with
    | Some p -> List.mem (path_name p) error_path_names
    | None -> false)
  | _ -> false

(* Peel the outer parameter chain of a toplevel function: the chain
   itself is the (statically allocated) function, only the bodies can
   allocate per call. Guards are bodies too. *)
let rec function_bodies e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.concat_map
      (fun c ->
        (match c.c_guard with Some g -> [ g ] | None -> [])
        @ function_bodies c.c_rhs)
      cases
  | _ -> [ e ]

type unit_view = {
  uv_file : string;
  uv_bindings : binding list;
}

(* Walk every [@zero_alloc] binding of the unit [str], compiled from
   [file]. [resolve_unit modname] returns the same-library unit compiled
   from [modname], if the index has it; [descend] also tries dune's
   [Lib__Mod] mangling, so paths that go through the generated alias
   module ([Adios_rdma.Verbs.Cq.push]) resolve too. *)
let zero_alloc ~file ~(str : structure)
    ~(resolve_unit : string -> unit_view option) : Finding.t list =
  let findings = ref [] in
  let add ~file ~line msg =
    findings := { Finding.file; line; rule = "zero-alloc"; msg } :: !findings
  in
  let bindings = structure_bindings str in
  let walked = Hashtbl.create 16 in
  (* Walk one function body; [origin] names the marked function the
     walk started from, [file] is where [e] lives. *)
  let rec walk ~file ~origin ~local_bindings ~depth e =
    let expr it e =
      if not (is_error_subtree e) then begin
        (match alloc_reason e with
        | Some reason ->
          let where =
            if depth = 0 then Printf.sprintf "in %s" origin
            else Printf.sprintf "reached from %s" origin
          in
          add ~file ~line:(line_of e.exp_loc)
            (Printf.sprintf "%s %s, a [@zero_alloc] path" reason where)
        | None -> ());
        (match e.exp_desc with
        | Texp_apply (f, _) when depth = 0 -> (
          match head_path f with
          | Some p -> descend ~file ~origin ~local_bindings p
          | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      end
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it e
  and descend ~file ~origin ~local_bindings p =
    (* One level into project callees, so a hot function cannot hide an
       allocation inside a helper. Marked callees are skipped: a hot one
       is walked on its own, a cold one allocates by design. *)
    let target =
      match p with
      | Path.Pident id -> (
        match find_by_ident local_bindings id with
        | Some b -> Some (file, local_bindings, b)
        | None -> None)
      | _ -> (
        match path_parts p with
        | Some (head, tail) when tail <> [] -> (
          let try_unit modname tail =
            match resolve_unit modname with
            | Some uv when tail <> [] ->
              Option.map
                (fun b -> (uv.uv_file, uv.uv_bindings, b))
                (find_by_dotted uv.uv_bindings (String.concat "." tail))
            | _ -> None
          in
          match try_unit head tail with
          | Some _ as r -> r
          | None -> (
            (* dune alias-module path: Lib.Mod.f compiles the unit
               Lib__Mod *)
            match tail with
            | m :: rest when rest <> [] ->
              try_unit (head ^ "__" ^ m) rest
            | _ -> None))
        | _ -> None)
    in
    match target with
    | None -> ()
    | Some (tfile, tbindings, b) ->
      let key = tfile ^ ":" ^ b.dotted in
      if (not b.hot) && (not b.cold) && not (Hashtbl.mem walked key) then begin
        Hashtbl.replace walked key ();
        List.iter
          (walk ~file:tfile
             ~origin:(Printf.sprintf "%s (callee of %s)" b.dotted origin)
             ~local_bindings:tbindings ~depth:1)
          (function_bodies b.expr)
      end
  in
  List.iter
    (fun b ->
      if b.hot then
        List.iter
          (walk ~file ~origin:b.dotted ~local_bindings:bindings ~depth:0)
          (function_bodies b.expr);
      if b.cold && not b.inline_never then
        add ~file ~line:b.line
          (Printf.sprintf
             "%s is marked [@cold] without [@inline never]: the compiler \
              ignores [@cold], so the slow path is inlined into its hot \
              callers"
             b.dotted))
    bindings;
  List.rev !findings

(* --- cycle-units ----------------------------------------------------------- *)

type taint = Clean | Lit | Us

let join a b =
  match (a, b) with
  | Us, _ | _, Us -> Us
  | Lit, _ | _, Lit -> Lit
  | Clean, Clean -> Clean

let sanitizer_names = [ "of_us"; "of_ns"; "of_sec"; "to_us"; "to_ns"; "to_sec" ]

let is_sanitizer_path p =
  match p with
  | Path.Pdot (q, n) ->
    List.mem n sanitizer_names
    &&
    let qn = Path.last q in
    String.equal qn "Clock" || String.ends_with ~suffix:"__Clock" qn
  | _ -> false

(* Arithmetic and conversions propagate units; everything else launders
   its arguments (a function call is assumed to produce whatever its
   signature says). *)
let is_propagator_name = function
  | "+." | "-." | "*." | "/." | "~-." | "~+." | "+" | "-" | "*" | "/"
  | "mod" | "min" | "max" | "abs" | "abs_float" | "int_of_float"
  | "float_of_int" | "float" | "truncate" | "ceil" | "floor" | "fma"
  | "round" | "of_int" | "to_int" | "add" | "sub" | "mul" | "div" ->
    true
  | _ -> false

let is_propagator p =
  let name = path_name p in
  match p with
  | Path.Pident _ -> is_propagator_name name
  | Path.Pdot (q, _) ->
    is_propagator_name name
    &&
    let qn = Path.last q in
    String.equal qn "Stdlib" || String.equal qn "Float" || String.equal qn "Int"
  | _ -> false

let sink_names = [ "schedule_at"; "timer_at" ]
let sink_labels = [ "delay"; "time" ]

let cycle_units ~path:file ~(str : structure) : Finding.t list =
  let findings = ref [] in
  let add line msg =
    findings := { Finding.file; line; rule = "cycle-units"; msg } :: !findings
  in
  (* taints of let-bound idents, filled in traversal order *)
  let ident_taint : (string, taint) Hashtbl.t = Hashtbl.create 64 in
  (* idents bound to a Clock converter ([let c = Clock.of_us]) *)
  let sanitizer_idents : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_sanitizer_head f =
    match head_path f with
    | Some p -> (
      is_sanitizer_path p
      ||
      match p with
      | Path.Pident id -> Hashtbl.mem sanitizer_idents (Ident.unique_name id)
      | _ -> false)
    | None -> false
  in
  let rec taint_of e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
        match Hashtbl.find_opt ident_taint (Ident.unique_name id) with
        | Some t -> t
        | None -> if ends_with_us (Ident.name id) then Us else Clean)
      | _ -> if ends_with_us (path_name p) then Us else Clean)
    | Texp_constant (Asttypes.Const_float _) -> Lit
    | Texp_field (_, _, lbl) ->
      if ends_with_us lbl.Types.lbl_name then Us else Clean
    | Texp_apply (f, args) ->
      if is_sanitizer_head f then Clean
      else
        let prop =
          match head_path f with Some p -> is_propagator p | None -> false
        in
        if prop then
          List.fold_left
            (fun acc (_, a) ->
              match a with Some a -> join acc (taint_of a) | None -> acc)
            Clean args
        else Clean
    | Texp_ifthenelse (_, a, Some b) -> join (taint_of a) (taint_of b)
    | Texp_ifthenelse (_, a, None) -> taint_of a
    | Texp_match (_, cases, _) ->
      List.fold_left (fun acc c -> join acc (taint_of c.c_rhs)) Clean cases
    | Texp_let (_, _, body) | Texp_sequence (_, body) | Texp_open (_, body)
      ->
      taint_of body
    | _ -> Clean
  in
  let record_binding vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> (
      let key = Ident.unique_name id in
      (match head_path vb.vb_expr with
      | Some p when is_sanitizer_path p -> Hashtbl.replace sanitizer_idents key ()
      | Some (Path.Pident src)
        when Hashtbl.mem sanitizer_idents (Ident.unique_name src) ->
        Hashtbl.replace sanitizer_idents key ()
      | _ -> ());
      match taint_of vb.vb_expr with
      | Clean -> ()
      | t -> Hashtbl.replace ident_taint key t)
    | _ -> ()
  in
  let describe = function
    | Us -> "a microsecond-named (*_us) value"
    | Lit -> "a raw float literal"
    | Clean -> assert false
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_apply (f, args) when not (is_sanitizer_head f) ->
      let fname =
        match head_path f with Some p -> Some (path_name p) | None -> None
      in
      (* sink by callee name: every positional argument is a cycles
         position *)
      (match fname with
      | Some n when List.mem n sink_names ->
        List.iter
          (fun (lbl, a) ->
            match (lbl, a) with
            | Asttypes.Nolabel, Some a -> (
              match taint_of a with
              | Clean -> ()
              | t ->
                add (line_of a.exp_loc)
                  (Printf.sprintf
                     "%s reaches %s, which takes Clock.cycles; convert \
                      with Clock.of_us"
                     (describe t) n))
            | _ -> ())
          args
      | _ -> ());
      (* sink by label: ~delay/~time arguments are cycles everywhere in
         this codebase *)
      List.iter
        (fun (lbl, a) ->
          match (lbl, a) with
          | Asttypes.Labelled l, Some a when List.mem l sink_labels -> (
            match taint_of a with
            | Clean -> ()
            | t ->
              add (line_of a.exp_loc)
                (Printf.sprintf
                   "%s flows into ~%s, a Clock.cycles position; convert \
                    with Clock.of_us"
                   (describe t) l))
          | _ -> ())
        args;
      (* unit mixing: tainted operand combined arithmetically with a
         cycles-typed one *)
      (match head_path f with
      | Some p when is_propagator p ->
        let arg_info =
          List.filter_map
            (fun (_, a) ->
              match a with
              | Some a -> Some (taint_of a, is_cycles_type a.exp_type)
              | None -> None)
            args
        in
        let has_us =
          List.exists (fun (t, _) -> match t with Us -> true | _ -> false)
            arg_info
        in
        let has_cycles =
          List.exists
            (fun (t, c) -> c && match t with Us -> false | _ -> true)
            arg_info
        in
        if has_us && has_cycles then
          add (line_of e.exp_loc)
            "arithmetic mixes a *_us microsecond value with Clock.cycles; \
             convert the microseconds with Clock.of_us first"
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let value_binding it vb =
    Tast_iterator.default_iterator.value_binding it vb;
    record_binding vb
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding } in
  it.structure it str;
  List.rev !findings
