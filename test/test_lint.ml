(* adios-lint tests: one positive and one negative fixture per rule,
   the cross-file wiring checks on synthetic sources, the suppression
   grammar, and a self-check that the repository as committed lints
   clean (the same gate CI enforces). *)

module Lint = Adios_analysis.Lint

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let lint ?event_kinds ~path source = Lint.lint_source ?event_kinds ~path ~source ()

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
      "event-wiring";
      "phase-wiring";
      "counter-export";
      "metric-export";
      "counter-registry";
      "poly-compare";
      "float-equal";
      "no-abort";
      "unused-shadow";
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
    (lint ~path:"bin/adios_sim.ml" "let f rng = Adios_engine.Rng.int rng 5");
  check_fires "bin is in scope" "determinism"
    (lint ~path:"bin/adios_sim.ml" "let f () = Random.int 5")

let test_determinism_exempt () =
  check_clean "rng.ml may seed itself"
    (lint ~path:"lib/engine/rng.ml" "let f () = Random.int 5");
  check_clean "clock.ml may read wall time"
    (lint ~path:"lib/engine/clock.ml" "let f () = Unix.gettimeofday ()")

(* --- event-wildcard ---------------------------------------------------- *)

let kinds = [ "Alpha"; "Beta"; "Gamma" ]

let test_event_wildcard () =
  check_fires "catch-all over kind constructors" "event-wildcard"
    (lint ~event_kinds:kinds ~path:"lib/trace/x.ml"
       "let f = function Alpha -> 1 | _ -> 0");
  check_fires "variable catch-all too" "event-wildcard"
    (lint ~event_kinds:kinds ~path:"lib/trace/x.ml"
       "let f k = match k with Beta -> 1 | other -> ignore other; 0")

let test_event_wildcard_negative () =
  check_clean "exhaustive match is fine"
    (lint ~event_kinds:kinds ~path:"lib/trace/x.ml"
       "let f = function Alpha -> 1 | Beta -> 2 | Gamma -> 3");
  check_clean "wildcards over other types are fine"
    (lint ~event_kinds:kinds ~path:"lib/trace/x.ml"
       "let f = function Some x -> x | _ -> 0");
  check_clean "rule disabled without the kind list"
    (lint ~path:"lib/trace/x.ml" "let f = function Alpha -> 1 | _ -> 0")

(* --- poly-compare ------------------------------------------------------ *)

let test_poly_compare () =
  check_fires "= None" "poly-compare"
    (lint ~path:"lib/core/x.ml" "let f a = a = None");
  check_fires "<> Some" "poly-compare"
    (lint ~path:"lib/rdma/x.ml" "let f a = a <> Some 3");
  check_fires "compare on a list" "poly-compare"
    (lint ~path:"lib/mem/x.ml" "let f a = compare a [ 1; 2 ]");
  check_fires "compare passed as a function" "poly-compare"
    (lint ~path:"lib/core/x.ml" "let f xs = List.sort compare xs")

let test_poly_compare_scope () =
  check_clean "apps are out of scope"
    (lint ~path:"lib/apps/x.ml" "let f a = a = None");
  check_clean "scalar comparisons are fine"
    (lint ~path:"lib/core/x.ml" "let f a b = a = b")

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

(* --- unused-shadow ----------------------------------------------------- *)

let test_unused_shadow () =
  check_fires "dead immediately-shadowed binding" "unused-shadow"
    (lint ~path:"lib/trace/x.ml"
       "let f () = let parts = [] in let parts = [ 1 ] in parts");
  check_clean "rebinding that uses the old value is fine"
    (lint ~path:"lib/trace/x.ml"
       "let f () = let parts = [] in let parts = 1 :: parts in parts");
  check_clean "distinct names are fine"
    (lint ~path:"lib/trace/x.ml" "let f () = let a = [] in let b = [ 1 ] in (a, b)")

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
  (* a zero-alloc suppression is typed-layer business: a syntax-only run
     must not call it stale just because the typed pass was skipped *)
  let src =
    Printf.sprintf "let f () = 1 (* %s zero-alloc -- typed-layer fixture *)"
      allow
  in
  check_bool "typed rules are not active on a syntactic run" false
    (fires "stale-suppression" (lint ~path:"lib/core/x.ml" src))

(* --- typed rules: zero-alloc ------------------------------------------- *)

let tlint ?manifest ~path source =
  Lint.lint_typed_source ?manifest ~path ~source ()

let manifest_of ~file ?(cold = []) functions =
  [ { Adios_analysis.Hotpath.file; functions; cold } ]

let test_zero_alloc_fires () =
  (* the planted fixture: an allocation inside a manifest function must
     produce exactly the expected finding *)
  let fs =
    tlint
      ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
      ~path:"lib/engine/sim.ml" "let schedule q x = ignore q; Some x"
  in
  check_int "exactly one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "zero-alloc" f.Lint.rule;
  check_bool "names the constructor" true (contains_sub f.Lint.msg "Some")

let test_zero_alloc_clean () =
  check_clean "integer arithmetic and mutation are free"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
       ~path:"lib/engine/sim.ml"
       "let r = ref 0\nlet schedule q d = ignore q; r := !r + d; !r land 31")

let test_zero_alloc_descent () =
  (* one level into a same-unit helper: the hot function cannot
     outsource its allocation *)
  let src = "let helper x = [ x ]\nlet schedule q = helper q" in
  check_fires "allocation in a direct callee is found" "zero-alloc"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
       ~path:"lib/engine/sim.ml" src);
  check_clean "cold-listed callees are exempt (slow paths allocate by design)"
    (tlint
       ~manifest:
         (manifest_of ~file:"lib/engine/sim.ml" ~cold:[ "helper" ]
            [ "schedule" ])
       ~path:"lib/engine/sim.ml" src)

let test_zero_alloc_error_path () =
  check_clean "error paths may allocate their exception"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
       ~path:"lib/engine/sim.ml"
       "let schedule q d =\n\
       \  if d < 0 then invalid_arg (string_of_int d);\n\
       \  q + d")

let test_zero_alloc_manifest_drift () =
  check_fires "a manifest entry naming a vanished function is a finding"
    "zero-alloc"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "gone" ])
       ~path:"lib/engine/sim.ml" "let schedule q = q")

(* A work-stealing deque's idiom: atomic accesses routed through a
   [yield_hook] test seam (a dereference applied as a function), unsafe
   array slots, and CAS. None of it allocates, so the typed rule must
   stay quiet on exactly this shape. *)
let test_zero_alloc_deque_idiom () =
  check_clean "the deque's hook-wrapped atomic idiom is allocation-free"
    (tlint
       ~manifest:
         (manifest_of ~file:"lib/engine/deque.ml" [ "push"; "steal_into" ])
       ~path:"lib/engine/deque.ml"
       "let yield_hook : (unit -> unit) ref = ref ignore\n\
        let aget a = !yield_hook (); Atomic.get a\n\
        let acas a old v = !yield_hook (); Atomic.compare_and_set a old v\n\
        let push buf top x =\n\
       \  let tp = aget top in\n\
       \  Array.unsafe_set buf (tp land 7) x;\n\
       \  tp < 8\n\
        let steal_into buf top cell =\n\
       \  let tp = aget top in\n\
       \  let x = Array.unsafe_get buf (tp land 7) in\n\
       \  if acas top tp (tp + 1) then begin cell := x; true end\n\
       \  else false")

let test_zero_alloc_deque_boxed_steal () =
  (* the regression such an entry exists to catch: a steal that boxes
     its result allocates an option per stolen task *)
  check_fires "a steal returning an option is a finding" "zero-alloc"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/deque.ml" [ "steal_into" ])
       ~path:"lib/engine/deque.ml"
       "let steal_into buf tp = Some (Array.unsafe_get buf (tp land 7))")

let test_zero_alloc_dangling_entry () =
  (* a hot-path file moved or deleted without its manifest entry: the
     entry certifies nothing, and saying so is the finding *)
  let sources =
    [
      ("lib/analysis/hotpath.ml",
       "let manifest =\n  [ { file = \"lib/engine/gone.ml\"; functions = [] } ]");
      ("lib/engine/sim.ml", "let schedule q = q");
    ]
  in
  match
    Lint.check_manifest_files
      ~manifest:(manifest_of ~file:"lib/engine/gone.ml" [ "push" ])
      ~sources
  with
  | [ f ] ->
    check_string "rule" "zero-alloc" f.Lint.rule;
    check_string "reported on the manifest" "lib/analysis/hotpath.ml"
      f.Lint.file;
    check_int "at the entry's line" 2 f.Lint.line;
    check_bool "names the missing file" true
      (contains_sub f.Lint.msg "lib/engine/gone.ml");
    check_clean "an entry for a present file is fine"
      (Lint.check_manifest_files
         ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
         ~sources)
  | fs ->
    Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_zero_alloc_suppressible () =
  let src =
    Printf.sprintf
      "let schedule q x =\n\
      \  ignore q;\n\
      \  (* %s zero-alloc -- fixture: documented payload *)\n\
      \  Some x"
      allow
  in
  check_clean "a reasoned suppression silences the typed rule"
    (tlint
       ~manifest:(manifest_of ~file:"lib/engine/sim.ml" [ "schedule" ])
       ~path:"lib/engine/sim.ml" src)

(* --- typed rules: cycle-units ------------------------------------------ *)

let sim_stub =
  "module Sim = struct\n\
  \  let schedule_at s t f = ignore s; ignore t; f ()\n\
  \  let schedule s ~delay f = ignore s; ignore delay; f ()\n\
   end\n"

let test_cycle_units_sink () =
  (* the planted fixture: a raw *_us float reaching Sim.schedule_at must
     produce exactly the expected finding *)
  let fs =
    tlint ~path:"lib/core/x.ml"
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
    (tlint ~path:"lib/core/x.ml"
       (sim_stub ^ "let bad sim = Sim.schedule_at sim (int_of_float 5.0) (fun () -> ())"))

let test_cycle_units_label () =
  check_fires "~delay is a cycles position everywhere" "cycle-units"
    (tlint ~path:"lib/core/x.ml"
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
    (tlint ~path:"lib/core/x.ml"
       (clock_stub ^ sim_stub
      ^ "let good sim t_us = Sim.schedule_at sim (Clock.of_us t_us) (fun () -> \
         ())"));
  check_clean "a toplevel alias of the sanitizer works too (params.ml's c)"
    (tlint ~path:"lib/core/x.ml"
       (clock_stub ^ sim_stub ^ "let c = Clock.of_us\n"
      ^ "let good sim t_us = Sim.schedule_at sim (c t_us) (fun () -> ())"))

let test_cycle_units_mixing () =
  let src =
    "module Clock = struct type cycles = int end\n\
     let bad (c : Clock.cycles) x_us = c + int_of_float x_us"
  in
  check_fires "arithmetic mixing cycles with *_us" "cycle-units"
    (tlint ~path:"lib/core/x.ml" src);
  check_clean "cycles-only arithmetic is fine"
    (tlint ~path:"lib/core/x.ml"
       "module Clock = struct type cycles = int end\n\
        let good (c : Clock.cycles) (d : Clock.cycles) = c + d")

let test_typed_source_must_type () =
  check_fires "a fixture that does not type is a finding, not a crash"
    "parse-error"
    (tlint ~path:"lib/core/x.ml" "let f x = x + 1.0")

(* --- event wiring (cross-file) ----------------------------------------- *)

let event_src =
  "type kind = Alpha | Beta\n\
   let kind_name = function Alpha -> \"alpha\" | Beta -> \"beta\"\n"

let chrome_full = "let phase = function Alpha -> 'B' | Beta -> 'E'\n"
let checker_full = "let check = function Alpha -> () | Beta -> ()\n"

let wiring ~chrome ~checker =
  Lint.check_event_wiring
    ~event:("lib/trace/event.ml", event_src)
    ~chrome:("lib/trace/chrome.ml", chrome)
    ~checker:("lib/trace/checker.ml", checker)

let test_event_wiring_clean () =
  check_clean "fully wired kinds" (wiring ~chrome:chrome_full ~checker:checker_full)

let test_event_wiring_missing () =
  (* Beta missing from the exporter: the simulated "added a constructor
     without wiring it" scenario must fail the lint. *)
  let fs = wiring ~chrome:"let phase = function Alpha -> 'B'\n" ~checker:checker_full in
  check_int "exactly one gap" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "event-wiring" f.Lint.rule;
  check_string "anchored at the declaration" "lib/trace/event.ml" f.Lint.file;
  check_bool "names the constructor" true (contains_sub f.Lint.msg "Beta")

let test_event_wiring_missing_everywhere () =
  let fs =
    wiring ~chrome:"let phase = function Alpha -> 'B'\n"
      ~checker:"let check = function Alpha -> ()\n"
  in
  check_int "one gap per missing mapping" 2 (List.length fs)

(* --- phase wiring (cross-file) ----------------------------------------- *)

let phase_src =
  "type t = Queue | Tx\n\
   let name = function Queue -> \"queue\" | Tx -> \"tx\"\n"

let export_full = "let phase_column = function Phase.Queue -> \"queue_cycles\" | Phase.Tx -> \"tx_cycles\"\n"
let report_full = "let phase_label = function Phase.Queue -> \"queue wait\" | Phase.Tx -> \"tx\"\n"

let phase_wiring ~export ~report =
  Lint.check_phase_wiring
    ~phase:("lib/prof/phase.ml", phase_src)
    ~export:("lib/core/export.ml", export)
    ~report:("lib/core/report.ml", report)

let test_phase_wiring_clean () =
  check_clean "fully wired phases"
    (phase_wiring ~export:export_full ~report:report_full)

let test_phase_wiring_missing_column () =
  (* Tx missing from the CSV column map: the simulated "added a phase
     without a column" scenario must fail the lint. *)
  let fs =
    phase_wiring
      ~export:"let phase_column = function Phase.Queue -> \"queue_cycles\"\n"
      ~report:report_full
  in
  check_int "exactly one gap" 1 (List.length fs);
  let f = List.hd fs in
  check_string "rule" "phase-wiring" f.Lint.rule;
  check_string "anchored at the declaration" "lib/prof/phase.ml" f.Lint.file;
  check_bool "names the constructor" true (contains_sub f.Lint.msg "Tx")

let test_phase_wiring_wildcard_not_enough () =
  (* a wildcard arm compiles but hides the phase: presence-in-a-pattern
     is the check, so it must still fire *)
  let fs =
    phase_wiring
      ~export:
        "let phase_column = function Phase.Queue -> \"queue_cycles\" | _ -> \
         \"other\"\n"
      ~report:report_full
  in
  check_int "wildcard does not wire Tx" 1 (List.length fs)

let test_phase_wiring_missing_everywhere () =
  let fs =
    phase_wiring
      ~export:"let phase_column = function Phase.Queue -> \"queue_cycles\"\n"
      ~report:"let phase_label = function Phase.Queue -> \"queue wait\"\n"
  in
  check_int "one gap per missing mapping" 2 (List.length fs)

(* --- counter/export (cross-file) --------------------------------------- *)

let counters ~system ~runner ~export =
  Lint.check_counter_export
    ~system:("lib/core/system.ml", system)
    ~runner:("lib/core/runner.ml", runner)
    ~export:("lib/core/export.ml", export)

let sys_ok = "type counters = { mutable faults : int }\n"
let run_ok = "type result = { faults : int }\nlet get c = c.System.faults\n"
let exp_ok = "let f r = string_of_int r.Runner.faults\n"

let test_counter_export_clean () =
  check_clean "wired counter" (counters ~system:sys_ok ~runner:run_ok ~export:exp_ok)

let test_counter_unread () =
  (* the "added a Params counter without wiring it" scenario *)
  let fs =
    counters
      ~system:"type counters = { mutable faults : int; mutable orphan : int }\n"
      ~runner:run_ok ~export:exp_ok
  in
  check_int "one unread counter" 1 (List.length fs);
  check_string "rule" "counter-export" (List.hd fs).Lint.rule;
  check_string "anchored in system.ml" "lib/core/system.ml" (List.hd fs).Lint.file

let test_result_field_unexported () =
  let fs =
    counters ~system:sys_ok
      ~runner:
        "type result = { faults : int; hidden : int }\nlet get c = c.System.faults\n"
      ~export:exp_ok
  in
  check_int "one unexported field" 1 (List.length fs);
  check_string "anchored in runner.ml" "lib/core/runner.ml" (List.hd fs).Lint.file

let test_non_scalar_fields_exempt () =
  check_clean "histograms etc. need no CSV column"
    (counters ~system:sys_ok
       ~runner:
         "type result = { faults : int; hist : Histogram.t }\n\
          let get c = c.System.faults\n"
       ~export:exp_ok)

(* --- metric registry (cross-file) -------------------------------------- *)

let reg_def =
  "let register_metrics t reg = Registry.counter reg ~name:\"adios_nic_ops_total\" \
   ~help:\"h\" ~labels:[] (fun () -> t)\n"

let reg_caller = "let go nic reg = Nic.register_metrics nic reg\n"

let metric_sources caller =
  [ ("lib/rdma/nic.ml", reg_def); ("lib/core/system.ml", caller) ]

let test_metric_export_clean () =
  check_clean "registered and called"
    (Lint.check_metric_export ~sources:(metric_sources reg_caller))

let test_metric_export_uncalled () =
  let fs = Lint.check_metric_export ~sources:(metric_sources "let go () = ()\n") in
  check_int "one unreachable register_metrics" 1 (List.length fs);
  check_string "rule" "metric-export" (List.hd fs).Lint.rule;
  check_string "anchored at the definition" "lib/rdma/nic.ml" (List.hd fs).Lint.file

let test_metric_export_alias_resolves () =
  check_clean "call through a module alias counts"
    (Lint.check_metric_export
       ~sources:
         (metric_sources
            "module N = Adios_rdma.Nic\nlet go nic reg = N.register_metrics nic reg\n"))

let test_metric_export_bad_names () =
  let bad src =
    Lint.check_metric_export ~sources:[ ("lib/core/x.ml", src) ]
  in
  check_fires "counter without _total" "metric-export"
    (bad "let f reg = Registry.counter reg ~name:\"adios_ops\" (fun () -> 0)\n");
  check_fires "gauge with _total" "metric-export"
    (bad "let f reg = Registry.gauge reg ~name:\"adios_depth_total\" (fun () -> 0.)\n");
  check_fires "illegal characters" "metric-export"
    (bad "let f reg = Registry.gauge reg ~name:\"adios_Depth\" (fun () -> 0.)\n");
  check_clean "well-formed names pass"
    (bad
       "let f reg = Registry.gauge reg ~name:\"adios_depth\" (fun () -> 0.)\n\
        let g reg = Registry.histogram reg ~name:\"adios_lat_us\" (fun () -> h)\n")

(* --- counter registry (cross-file) ------------------------------------- *)

let counter_registry src =
  Lint.check_counter_registry ~system:("lib/core/system.ml", src)

let test_counter_registry_clean () =
  check_clean "every counter registered"
    (counter_registry
       "type counters = { mutable faults : int }\n\
        let register_metrics t reg =\n\
        \  Registry.counter reg ~name:\"adios_sys_faults_total\" ~help:\"h\"\n\
        \    ~labels:[] (fun () -> t.counters.faults)\n")

let test_counter_registry_orphan () =
  let fs =
    counter_registry
      "type counters = { mutable faults : int; mutable orphan : int }\n\
       let register_metrics t reg =\n\
       \  Registry.counter reg ~name:\"adios_sys_faults_total\" ~help:\"h\"\n\
       \    ~labels:[] (fun () -> t.counters.faults)\n"
  in
  check_int "one unregistered counter" 1 (List.length fs);
  check_string "rule" "counter-registry" (List.hd fs).Lint.rule;
  check_bool "names the field" true (contains_sub (List.hd fs).Lint.msg "orphan")

let test_counter_registry_blind () =
  check_fires "missing register_metrics is itself a finding" "counter-registry"
    (counter_registry "type counters = { mutable faults : int }\n")

(* --- repository self-check --------------------------------------------- *)

let repo_root () =
  let rec up d =
    if
      Sys.file_exists (Filename.concat d "dune-project")
      && Sys.file_exists (Filename.concat d ".git")
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
    (* a typed run against a build dir that does not exist must complain
       per file, not silently degrade to the syntactic subset *)
    let _, findings =
      Lint.run ~root ~build_dir:(Filename.concat root "_no_such_build") ()
    in
    check_fires "missing build dir reports cmt-drift" "cmt-drift" findings;
    let _, syntactic = Lint.run ~root ~typed:false () in
    check_bool "and --no-typed opts out of it" false
      (fires "cmt-drift" syntactic)

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
          Alcotest.test_case "manifest drift" `Quick
            test_zero_alloc_manifest_drift;
          Alcotest.test_case "suppressible" `Quick test_zero_alloc_suppressible;
          Alcotest.test_case "deque atomic idiom" `Quick
            test_zero_alloc_deque_idiom;
          Alcotest.test_case "deque boxed steal" `Quick
            test_zero_alloc_deque_boxed_steal;
          Alcotest.test_case "dangling manifest entry" `Quick
            test_zero_alloc_dangling_entry;
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
      ( "wiring",
        [
          Alcotest.test_case "clean" `Quick test_event_wiring_clean;
          Alcotest.test_case "missing exporter" `Quick test_event_wiring_missing;
          Alcotest.test_case "missing twice" `Quick
            test_event_wiring_missing_everywhere;
        ] );
      ( "phase-wiring",
        [
          Alcotest.test_case "clean" `Quick test_phase_wiring_clean;
          Alcotest.test_case "missing column" `Quick
            test_phase_wiring_missing_column;
          Alcotest.test_case "wildcard not enough" `Quick
            test_phase_wiring_wildcard_not_enough;
          Alcotest.test_case "missing twice" `Quick
            test_phase_wiring_missing_everywhere;
        ] );
      ( "counter-export",
        [
          Alcotest.test_case "clean" `Quick test_counter_export_clean;
          Alcotest.test_case "unread counter" `Quick test_counter_unread;
          Alcotest.test_case "unexported field" `Quick test_result_field_unexported;
          Alcotest.test_case "non-scalar exempt" `Quick test_non_scalar_fields_exempt;
        ] );
      ( "metric-export",
        [
          Alcotest.test_case "clean" `Quick test_metric_export_clean;
          Alcotest.test_case "uncalled registration" `Quick
            test_metric_export_uncalled;
          Alcotest.test_case "alias resolves" `Quick
            test_metric_export_alias_resolves;
          Alcotest.test_case "name convention" `Quick test_metric_export_bad_names;
        ] );
      ( "counter-registry",
        [
          Alcotest.test_case "clean" `Quick test_counter_registry_clean;
          Alcotest.test_case "orphan counter" `Quick test_counter_registry_orphan;
          Alcotest.test_case "blind without binding" `Quick
            test_counter_registry_blind;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "repository lints clean" `Quick
            test_repo_lints_clean;
          Alcotest.test_case "cmt drift is loud" `Quick test_cmt_drift_loud;
        ] );
    ]
