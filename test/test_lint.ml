(* adios-lint tests: one positive and one negative fixture per rule,
   each typed in-process, the suppression grammar, and a self-check
   that the repository as committed lints clean (the same gate CI
   enforces). *)

module Lint = Adios_analysis.Lint

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let lint ~path source = Lint.lint_source ~path ~source ()

let rules_of fs = List.map (fun f -> f.Lint.rule) fs
let fires rule fs = List.mem rule (rules_of fs)

let check_fires msg rule fs = check_bool msg true (fires rule fs)
let check_clean msg fs =
  check (Alcotest.list Alcotest.string) msg [] (List.map Lint.to_string fs)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* Every fixture below targets a rule name that must actually exist. *)
let test_rule_names () =
  List.iter
    (fun r -> check_bool ("rule registered: " ^ r) true (List.mem r Lint.rule_names))
    [
      "determinism";
      "event-wildcard";
      "poly-compare";
      "float-equal";
      "no-abort";
      "zero-alloc";
      "cycle-units";
      "cmt-drift";
      "stale-suppression";
      "suppress-reason";
      "parse-error";
    ]

let test_to_string () =
  check_string "gating format" "lib/core/a.ml:3: [no-abort] boom"
    (Lint.to_string
       { Lint.file = "lib/core/a.ml"; line = 3; rule = "no-abort"; msg = "boom" })

(* --- determinism ------------------------------------------------------- *)

let test_determinism () =
  List.iter
    (fun src ->
      check_fires ("forbidden: " ^ src) "determinism"
        (lint ~path:"lib/core/foo.ml" ("let f () = " ^ src)))
    [
      "Random.int 5";
      "Random.self_init ()";
      "Stdlib.Random.bits ()";
      "Unix.gettimeofday ()";
      "Sys.time ()";
      "Hashtbl.hash 42";
      "Hashtbl.seeded_hash 1 42";
    ];
  check_clean "bin is in scope but Rng calls are fine"
    (lint ~path:"bin/adios_sim.ml"
       "module Rng = struct let int _ n = n end\nlet f rng = Rng.int rng 5");
  check_fires "bin is in scope" "determinism"
    (lint ~path:"bin/adios_sim.ml" "let f () = Random.int 5")

(* A name counts where it resolves: [int] under [let open Random] is
   [Random.int], and a local [Random] is not Stdlib's. *)
let test_determinism_open () =
  check_fires "let open Random" "determinism"
    (lint ~path:"lib/core/foo.ml" "let f () = let open Random in int 5");
  check_clean "a local module named Random is not Stdlib's"
    (lint ~path:"lib/core/foo.ml"
       "module Random = struct let int n = n end\nlet f () = Random.int 5")

let test_determinism_exempt () =
  check_clean "rng.ml may seed itself"
    (lint ~path:"lib/engine/rng.ml" "let f () = Random.int 5");
  check_clean "clock.ml may read wall time"
    (lint ~path:"lib/engine/clock.ml" "let f () = Unix.gettimeofday ()")

(* --- event-wildcard ---------------------------------------------------- *)

let event_stub =
  "module Event = struct type kind = Dispatch | Run_begin | Run_end end\n"

let test_event_wildcard () =
  check_fires "catch-all over kind constructors" "event-wildcard"
    (lint ~path:"lib/trace/x.ml"
       (event_stub ^ "let f = function Event.Dispatch -> 1 | _ -> 0"));
  check_fires "variable catch-all too" "event-wildcard"
    (lint ~path:"lib/trace/x.ml"
       (event_stub
      ^ "let f k = match k with Event.Run_begin -> 1 | other -> ignore other; 0"
       ))

let test_event_wildcard_negative () =
  check_clean "exhaustive match is fine"
    (lint ~path:"lib/trace/x.ml"
       (event_stub
      ^ "let f = function Event.Dispatch -> 1 | Run_begin -> 2 | Run_end -> 3"
       ));
  check_clean "wildcards over other types are fine"
    (lint ~path:"lib/trace/x.ml" "let f = function Some x -> x | _ -> 0");
  (* the constructor's type decides, not its name *)
  check_clean "a local variant sharing a kind's constructor name is fine"
    (lint ~path:"lib/core/x.ml"
       "type stage = Dispatch | Idle\nlet f = function Dispatch -> 1 | _ -> 0")

(* --- poly-compare ------------------------------------------------------ *)

let test_poly_compare () =
  check_fires "= None" "poly-compare"
    (lint ~path:"lib/core/x.ml" "let f a = a = None");
  check_fires "<> Some" "poly-compare"
    (lint ~path:"lib/rdma/x.ml" "let f a = a <> Some 3");
  check_fires "compare on a list" "poly-compare"
    (lint ~path:"lib/mem/x.ml" "let f a = compare a [ 1; 2 ]");
  check_fires "compare passed as a function" "poly-compare"
    (lint ~path:"lib/core/x.ml" "let f xs = List.sort compare xs");
  check_fires "Stdlib.compare passed as a function" "poly-compare"
    (lint ~path:"lib/core/x.ml" "let f xs = List.sort Stdlib.compare xs")

let test_poly_compare_scope () =
  check_clean "apps are out of scope"
    (lint ~path:"lib/apps/x.ml" "let f a = a = None");
  check_clean "scalar comparisons are fine"
    (lint ~path:"lib/core/x.ml" "let f a b = a = b");
  check_clean "a module-local compare is not Stdlib's"
    (lint ~path:"lib/core/x.ml"
       "let compare (a : int) b = Int.compare a b\n\
        let f xs = List.sort compare xs")

(* --- float-equal ------------------------------------------------------- *)

let test_float_equal () =
  check_fires "= literal" "float-equal"
    (lint ~path:"lib/stats/x.ml" "let f x = x = 0.5");
  check_fires "<> negated literal" "float-equal"
    (lint ~path:"lib/stats/x.ml" "let f x = x <> -0.5");
  check_clean "ordering against a literal is fine"
    (lint ~path:"lib/stats/x.ml" "let f x = x > 0.5")

(* --- no-abort ---------------------------------------------------------- *)

let test_no_abort () =
  check_fires "failwith in apps" "no-abort"
    (lint ~path:"lib/apps/foo.ml" "let f () = failwith \"x\"");
  check_fires "assert false in apps" "no-abort"
    (lint ~path:"lib/apps/foo.ml" "let f = function Some v -> v | None -> assert false")

let test_no_abort_scope () =
  check_clean "core may abort on internal invariants"
    (lint ~path:"lib/core/foo.ml" "let f () = failwith \"x\"");
  check_clean "ordinary asserts are fine in apps"
    (lint ~path:"lib/apps/foo.ml" "let f x = assert (x > 0)")

(* --- parse-error ------------------------------------------------------- *)

let test_parse_error () =
  check_fires "unparseable source is a finding, not an exception" "parse-error"
    (lint ~path:"lib/core/bad.ml" "let let =")

(* --- suppressions ------------------------------------------------------ *)

(* Assembled so no linted file ever contains the literal marker. *)
let allow = "lint:" ^ " allow"

let test_suppression_with_reason () =
  let src =
    Printf.sprintf "let f () = failwith \"x\" (* %s no-abort -- fixture *)" allow
  in
  check_clean "reasoned suppression silences the finding"
    (lint ~path:"lib/apps/foo.ml" src);
  let above =
    Printf.sprintf "(* %s no-abort -- fixture *)\nlet f () = failwith \"x\"" allow
  in
  check_clean "line-above placement works" (lint ~path:"lib/apps/foo.ml" above)

let test_suppression_needs_reason () =
  let src = Printf.sprintf "let f () = failwith \"x\" (* %s no-abort *)" allow in
  let fs = lint ~path:"lib/apps/foo.ml" src in
  check_fires "missing reason is itself a finding" "suppress-reason" fs;
  check_fires "and the original finding survives" "no-abort" fs

let test_suppression_unknown_rule () =
  let src = Printf.sprintf "let f () = failwith \"x\" (* %s nonsense -- r *)" allow in
  let fs = lint ~path:"lib/apps/foo.ml" src in
  check_fires "unknown rule is rejected" "suppress-reason" fs;
  check_fires "and suppresses nothing" "no-abort" fs

let test_suppression_only_named_rule () =
  let src =
    Printf.sprintf
      "let f a = a = None (* %s float-equal -- wrong rule named *)" allow
  in
  check_fires "a suppression only covers the rules it names" "poly-compare"
    (lint ~path:"lib/core/x.ml" src)

let test_suppression_multiline () =
  (* the finding anchors at the expression's first line, so a comment
     directly above suppresses it even when the expression continues
     over several more lines *)
  let src =
    Printf.sprintf
      "let f () =\n\
      \  (* %s no-abort -- fixture *)\n\
      \  failwith\n\
      \    (String.concat \",\" [ \"a\"; \"b\" ])"
      allow
  in
  check_clean "comment above a multi-line expression suppresses it"
    (lint ~path:"lib/apps/foo.ml" src)

let test_suppression_unknown_among_known () =
  (* one bad rule name poisons the whole comment: nothing is suppressed,
     so the typo cannot silently widen what the author meant to allow *)
  let src =
    Printf.sprintf "let f () = failwith \"x\" (* %s no-abort, nonsense -- r *)"
      allow
  in
  let fs = lint ~path:"lib/apps/foo.ml" src in
  check_fires "unknown rule is rejected" "suppress-reason" fs;
  check_fires "and the known rule in the same comment suppresses nothing"
    "no-abort" fs

(* --- stale-suppression -------------------------------------------------- *)

let test_stale_suppression () =
  let src = Printf.sprintf "let f () = 1 (* %s no-abort -- obsolete *)" allow in
  check_fires "suppression with no matching finding is stale"
    "stale-suppression"
    (lint ~path:"lib/apps/foo.ml" src);
  let live =
    Printf.sprintf "let f () = failwith \"x\" (* %s no-abort -- fixture *)" allow
  in
  check_bool "a live suppression is not stale" false
    (fires "stale-suppression" (lint ~path:"lib/apps/foo.ml" live))

let test_stale_suppression_inactive_rule () =
  (* a source that does not type ran no rule, so its suppressions are
     not stale: the parse-error is the one finding *)
  let src =
    Printf.sprintf "let f x = x + 1.0 (* %s no-abort -- fixture *)" allow
  in
  check (Alcotest.list Alcotest.string) "only the parse error"
    [ "parse-error" ]
    (rules_of (lint ~path:"lib/apps/foo.ml" src))

(* --- zero-alloc -------------------------------------------------------- *)

let test_zero_alloc_fires () =
  (* the planted fixture: an allocation inside a marked function must
     produce exactly the expected finding *)
  let fs =
    lint ~path:"lib/engine/sim.ml"
      "let[@zero_alloc] schedule q x = ignore q; Some x"
  in
  check_int "exactly one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "zero-alloc" f.Lint.rule;
  check_bool "names the constructor" true (contains_sub f.Lint.msg "Some");
  check_clean "an unmarked function is not walked"
    (lint ~path:"lib/engine/sim.ml" "let schedule q x = ignore q; Some x")

let test_zero_alloc_clean () =
  check_clean "integer arithmetic and mutation are free"
    (lint ~path:"lib/engine/sim.ml"
       "let r = ref 0\n\
        let[@zero_alloc] schedule q d = ignore q; r := !r + d; !r land 31")

let test_zero_alloc_descent () =
  (* one level into a same-unit helper: the hot function cannot
     outsource its allocation *)
  let hot = "let[@zero_alloc] schedule q = helper q" in
  check_fires "allocation in a direct callee is found" "zero-alloc"
    (lint ~path:"lib/engine/sim.ml" ("let helper x = [ x ]\n" ^ hot));
  check_clean "callees marked cold are exempt (slow paths allocate by design)"
    (lint ~path:"lib/engine/sim.ml"
       ("let[@cold][@inline never] helper x = [ x ]\n" ^ hot))

let test_zero_alloc_error_path () =
  check_clean "error paths may allocate their exception"
    (lint ~path:"lib/engine/sim.ml"
       "let[@zero_alloc] schedule q d =\n\
       \  if d < 0 then invalid_arg (string_of_int d);\n\
       \  q + d")

(* Marks where the tree puts them: inside a submodule (Verbs.Cq.push),
   and on the bindings of a recursive chain (System.post_fetch and its
   backoff, which is cold). *)
let test_zero_alloc_submodule () =
  let fs =
    lint ~path:"lib/rdma/verbs.ml"
      "module Cq = struct\n\
      \  let[@zero_alloc] push t x = ignore t; Some x\n\
       end"
  in
  check_int "exactly one finding" 1 (List.length fs);
  check_bool "names the dotted function" true
    (contains_sub (List.hd fs).Lint.msg "Cq.push")

let test_zero_alloc_rec_chain () =
  let chain backoff =
    "let[@zero_alloc] rec post q n = if q > n then backoff q n else q\n"
    ^ backoff ^ " q n = ignore [ n ]; post (q - 1) n"
  in
  let fs = lint ~path:"lib/core/system.ml" (chain "and backoff") in
  check_int "the allocation in the chain's callee fires" 1 (List.length fs);
  check_int "on the callee's line" 2 (List.hd fs).Lint.line;
  check_clean "and[@cold] exempts it"
    (lint ~path:"lib/core/system.ml"
       (chain "and[@cold][@inline never] backoff"))

(* OCaml ignores [@cold]: only [@inline never] keeps a slow path out of
   the hot callers the optimised build would inline it into. *)
let test_cold_inline_never () =
  let fs =
    lint ~path:"lib/engine/sim.ml" "let x = 1\nlet[@cold] grow t = [ t ]"
  in
  check_int "exactly one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "zero-alloc" f.Lint.rule;
  check_int "on the binding's line" 2 f.Lint.line;
  check_bool "names the function" true (contains_sub f.Lint.msg "grow");
  check_fires "in a recursive chain too" "zero-alloc"
    (lint ~path:"lib/core/system.ml"
       "let rec post q = if q > 0 then backoff q else q\n\
        and[@cold] backoff q = post (q - 1)");
  check_clean "[@inline never] satisfies it"
    (lint ~path:"lib/engine/sim.ml"
       "let[@cold][@inline never] grow t = [ t ]");
  check_clean "so does [@ocaml.inline never]"
    (lint ~path:"lib/engine/sim.ml"
       "let[@cold][@ocaml.inline never] grow t = [ t ]");
  check_fires "[@inline always] does not" "zero-alloc"
    (lint ~path:"lib/engine/sim.ml"
       "let[@cold][@inline always] grow t = [ t ]")

(* A closure read out of a ref or an array and applied at once is a full
   application, not a partial one: the callee's arity comes from its
   declared type ('a array -> int -> 'a), not from the instantiated one.
   [Sim.step]'s action and [System.settle]'s wake-up are read this way. *)
let test_zero_alloc_stored_closure () =
  check_clean "applying a stored closure does not allocate"
    (lint ~path:"lib/engine/x.ml"
       "let yield_hook : (unit -> unit) ref = ref ignore\n\
        let aget a = !yield_hook (); Atomic.get a\n\
        let acas a old v = !yield_hook (); Atomic.compare_and_set a old v\n\
        let[@zero_alloc] push buf top x =\n\
       \  let tp = aget top in\n\
       \  Array.unsafe_set buf (tp land 7) x;\n\
       \  tp < 8\n\
        let[@zero_alloc] steal_into buf top cell =\n\
       \  let tp = aget top in\n\
       \  let x = Array.unsafe_get buf (tp land 7) in\n\
       \  if acas top tp (tp + 1) then begin cell := x; true end\n\
       \  else false\n\
        let[@zero_alloc] fire (hooks : (unit -> unit) array) i = hooks.(i) ()")

let test_zero_alloc_suppressible () =
  let src =
    Printf.sprintf
      "let[@zero_alloc] schedule q x =\n\
      \  ignore q;\n\
      \  (* %s zero-alloc -- fixture: documented payload *)\n\
      \  Some x"
      allow
  in
  check_clean "a reasoned suppression silences the typed rule"
    (lint ~path:"lib/engine/sim.ml" src)

(* --- cycle-units ------------------------------------------------------- *)

let sim_stub =
  "module Sim = struct\n\
  \  let schedule_at s t f = ignore s; ignore t; f ()\n\
  \  let schedule s ~delay f = ignore s; ignore delay; f ()\n\
   end\n"

let test_cycle_units_sink () =
  (* the planted fixture: a raw *_us float reaching Sim.schedule_at must
     produce exactly the expected finding *)
  let fs =
    lint ~path:"lib/core/x.ml"
      (sim_stub
     ^ "let bad sim t_us = Sim.schedule_at sim (int_of_float t_us) (fun () -> \
        ())")
  in
  check_int "exactly one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "cycle-units" f.Lint.rule;
  check_bool "points at the conversion" true
    (contains_sub f.Lint.msg "Clock.of_us")

let test_cycle_units_literal () =
  check_fires "a float literal funnelled into a cycles position"
    "cycle-units"
    (lint ~path:"lib/core/x.ml"
       (sim_stub ^ "let bad sim = Sim.schedule_at sim (int_of_float 5.0) (fun () -> ())"))

let test_cycle_units_label () =
  check_fires "~delay is a cycles position everywhere" "cycle-units"
    (lint ~path:"lib/core/x.ml"
       (sim_stub
      ^ "let bad sim t_us = Sim.schedule sim ~delay:(int_of_float t_us) (fun \
         () -> ())"))

let test_cycle_units_sanitized () =
  let clock_stub =
    "module Clock = struct\n\
    \  type cycles = int\n\
    \  let of_us (u : float) : cycles = int_of_float u\n\
     end\n"
  in
  check_clean "Clock.of_us launders microseconds"
    (lint ~path:"lib/core/x.ml"
       (clock_stub ^ sim_stub
      ^ "let good sim t_us = Sim.schedule_at sim (Clock.of_us t_us) (fun () -> \
         ())"));
  check_clean "a toplevel alias of the sanitizer works too (params.ml's c)"
    (lint ~path:"lib/core/x.ml"
       (clock_stub ^ sim_stub ^ "let c = Clock.of_us\n"
      ^ "let good sim t_us = Sim.schedule_at sim (c t_us) (fun () -> ())"))

let test_cycle_units_mixing () =
  let src =
    "module Clock = struct type cycles = int end\n\
     let bad (c : Clock.cycles) x_us = c + int_of_float x_us"
  in
  check_fires "arithmetic mixing cycles with *_us" "cycle-units"
    (lint ~path:"lib/core/x.ml" src);
  check_clean "cycles-only arithmetic is fine"
    (lint ~path:"lib/core/x.ml"
       "module Clock = struct type cycles = int end\n\
        let good (c : Clock.cycles) (d : Clock.cycles) = c + d")

let test_typed_source_must_type () =
  check_fires "a fixture that does not type is a finding, not a crash"
    "parse-error"
    (lint ~path:"lib/core/x.ml" "let f x = x + 1.0")

(* --- repository self-check --------------------------------------------- *)

(* The nearest ancestor holding a [dune-project] that is not dune's
   copy of the tree under [_build] (the tests run in
   [_build/default/test], and [_build/default] has one too). No [.git]
   is needed, so an exported tree ([git archive]) tests the same. *)
let repo_root () =
  let in_build d =
    List.mem "_build" (String.split_on_char '/' d)
  in
  let rec up d =
    if Sys.file_exists (Filename.concat d "dune-project") && not (in_build d)
    then Some d
    else
      let parent = Filename.dirname d in
      if String.equal parent d then None else up parent
  in
  up (Sys.getcwd ())

let test_repo_lints_clean () =
  match repo_root () with
  | None -> Alcotest.fail "repository root not found from cwd"
  | Some root ->
    (* typed on: the dune deps on @check guarantee current cmts, so this
       is the same gate CI's post-build lint step enforces *)
    let nfiles, findings = Lint.run ~root () in
    check_bool "scanned the whole tree" true (nfiles >= 40);
    check (Alcotest.list Alcotest.string) "repo is lint-clean" []
      (List.map Lint.to_string findings)

let test_cmt_drift_loud () =
  match repo_root () with
  | None -> Alcotest.fail "repository root not found from cwd"
  | Some root ->
    (* a run against a build dir that does not exist must complain per
       file, not silently skip the rules *)
    let _, findings =
      Lint.run ~root ~build_dir:(Filename.concat root "_no_such_build") ()
    in
    check_fires "missing build dir reports cmt-drift" "cmt-drift" findings;
    check_bool "and no rule ran, so no suppression is stale" false
      (fires "stale-suppression" findings)

(* An immediately shadowed, unused binding is warning 26, which the
   root dune's flags make a build error; the lint has no rule for it. *)
let test_unused_shadow () =
  match repo_root () with
  | None -> Alcotest.fail "repository root not found from cwd"
  | Some root ->
    let words =
      In_channel.with_open_bin (Filename.concat root "dune")
        In_channel.input_all
      |> String.split_on_char '\n'
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (fun w -> not (String.equal w ""))
    in
    let rec spec = function
      | "-w" :: s :: _ -> s
      | _ :: rest -> spec rest
      | [] -> Alcotest.fail "the root dune sets no -w"
    in
    let saved = Warnings.backup () in
    Fun.protect
      ~finally:(fun () -> Warnings.restore saved)
      (fun () ->
        ignore (Warnings.parse_options false (spec words));
        check_bool "warning 26 is an error" true
          (Warnings.is_error (Warnings.Unused_var "parts")))

let () =
  Alcotest.run "lint"
    [
      ( "meta",
        [
          Alcotest.test_case "rule names" `Quick test_rule_names;
          Alcotest.test_case "finding format" `Quick test_to_string;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "forbidden calls" `Quick test_determinism;
          Alcotest.test_case "through an open" `Quick test_determinism_open;
          Alcotest.test_case "boundary exemptions" `Quick test_determinism_exempt;
        ] );
      ( "event-wildcard",
        [
          Alcotest.test_case "catch-alls flagged" `Quick test_event_wildcard;
          Alcotest.test_case "exhaustive ok" `Quick test_event_wildcard_negative;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "poly-compare scope" `Quick test_poly_compare_scope;
          Alcotest.test_case "float-equal" `Quick test_float_equal;
          Alcotest.test_case "no-abort" `Quick test_no_abort;
          Alcotest.test_case "no-abort scope" `Quick test_no_abort_scope;
          Alcotest.test_case "unused-shadow" `Quick test_unused_shadow;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "with reason" `Quick test_suppression_with_reason;
          Alcotest.test_case "reason required" `Quick test_suppression_needs_reason;
          Alcotest.test_case "unknown rule" `Quick test_suppression_unknown_rule;
          Alcotest.test_case "rule-scoped" `Quick test_suppression_only_named_rule;
          Alcotest.test_case "multi-line expression" `Quick
            test_suppression_multiline;
          Alcotest.test_case "unknown among known" `Quick
            test_suppression_unknown_among_known;
          Alcotest.test_case "stale flagged" `Quick test_stale_suppression;
          Alcotest.test_case "stale needs an active rule" `Quick
            test_stale_suppression_inactive_rule;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "allocation in manifest fn" `Quick
            test_zero_alloc_fires;
          Alcotest.test_case "clean hot code" `Quick test_zero_alloc_clean;
          Alcotest.test_case "one-level descent" `Quick test_zero_alloc_descent;
          Alcotest.test_case "error paths exempt" `Quick
            test_zero_alloc_error_path;
          Alcotest.test_case "suppressible" `Quick test_zero_alloc_suppressible;
          Alcotest.test_case "closure read from a ref or array" `Quick
            test_zero_alloc_stored_closure;
          Alcotest.test_case "mark in a submodule" `Quick
            test_zero_alloc_submodule;
          Alcotest.test_case "cold needs inline never" `Quick
            test_cold_inline_never;
          Alcotest.test_case "mark in a recursive chain" `Quick
            test_zero_alloc_rec_chain;
        ] );
      ( "cycle-units",
        [
          Alcotest.test_case "raw us to schedule_at" `Quick
            test_cycle_units_sink;
          Alcotest.test_case "float literal" `Quick test_cycle_units_literal;
          Alcotest.test_case "~delay label" `Quick test_cycle_units_label;
          Alcotest.test_case "sanitizers" `Quick test_cycle_units_sanitized;
          Alcotest.test_case "unit mixing" `Quick test_cycle_units_mixing;
          Alcotest.test_case "fixture must type" `Quick
            test_typed_source_must_type;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "repository lints clean" `Quick
            test_repo_lints_clean;
          Alcotest.test_case "cmt drift is loud" `Quick test_cmt_drift_loud;
        ] );
    ]
