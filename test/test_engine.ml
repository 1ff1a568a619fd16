module Clock = Adios_engine.Clock
module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc
module Gate = Adios_engine.Gate
module Rng = Adios_engine.Rng

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- clock ------------------------------------------------------------ *)

let test_clock () =
  check_int "1us" 2000 (Clock.of_us 1.);
  check_int "1ns=2cy" 2 (Clock.of_ns 1.);
  check_int "1s" Clock.cycles_per_sec (Clock.of_sec 1.);
  check (Alcotest.float 1e-9) "roundtrip" 12.5 (Clock.to_us (Clock.of_us 12.5));
  check (Alcotest.float 1e-9) "ns" 500. (Clock.to_ns (Clock.of_us 0.5))

(* --- sim -------------------------------------------------------------- *)

(* Per-test [Sim] fixture: every sim/proc test below receives a fresh
   simulator and its body runs on its own spawned domain, never the
   main one. The `Domains sweep backend builds one simulator per point
   on whichever worker domain steals it, so any hidden module-level
   state in the engine — a shared table, a static counter, an implicit
   RNG — would make results depend on which domain ran first; a fresh
   domain per test keeps that honest. [Domain.join] re-raises the
   body's exception, so alcotest failures surface unchanged. *)
let sim_case name body =
  Alcotest.test_case name `Quick (fun () ->
      Domain.join (Domain.spawn (fun () -> body (Sim.create ()))))

let test_sim_order sim =
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:10 (fun () -> log := "c" :: !log);
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check_int "clock" 10 (Sim.now sim);
  check_int "processed" 3 (Sim.events_processed sim)

let test_sim_run_until sim =
  let fired = ref 0 in
  Sim.schedule sim ~delay:100 (fun () -> incr fired);
  Sim.schedule sim ~delay:200 (fun () -> incr fired);
  Sim.run_until sim 150;
  check_int "one fired" 1 !fired;
  check_int "clock at limit" 150 (Sim.now sim);
  check_int "pending" 1 (Sim.pending sim);
  Sim.run sim;
  check_int "both fired" 2 !fired

let test_sim_nested_schedule sim =
  let result = ref 0 in
  Sim.schedule sim ~delay:5 (fun () ->
      Sim.schedule sim ~delay:5 (fun () -> result := Sim.now sim));
  Sim.run sim;
  check_int "nested time" 10 !result

(* Events fire in the stable sort of their delays, so two events
   scheduled for the same instant run in scheduling order. *)
let prop_sim_stable_order =
  QCheck.Test.make ~name:"sim fires events in stable delay order" ~count:300
    QCheck.(list (int_range 0 8))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i d -> Sim.schedule sim ~delay:d (fun () -> fired := (d, i) :: !fired))
        delays;
      Sim.run sim;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i d -> (d, i)) delays)
      in
      List.rev !fired = expected
      && Sim.pending sim = 0
      && Sim.events_processed sim = List.length delays)

let test_sim_negative_delay_clamped sim =
  let at = ref (-1) in
  Sim.schedule sim ~delay:20 (fun () ->
      Sim.schedule sim ~delay:(-50) (fun () -> at := Sim.now sim));
  Sim.run sim;
  check_int "clamped to now" 20 !at

(* Every past-time clamp is counted; on-time and zero-delay schedules
   are not. *)
let test_clamped_schedules_counter sim =
  check_int "fresh" 0 (Sim.clamped_schedules sim);
  let at = ref (-1) in
  Sim.schedule sim ~delay:20 (fun () ->
      Sim.schedule_at sim 5 (fun () -> at := Sim.now sim);
      Sim.schedule sim ~delay:(-3) (fun () -> ());
      ignore (Sim.timer_at sim 0 (fun () -> ())));
  Sim.run sim;
  check_int "three clamps counted" 3 (Sim.clamped_schedules sim);
  check_int "clamped event ran at now" 20 !at;
  Sim.schedule sim ~delay:0 (fun () -> ());
  Sim.schedule_at sim (Sim.now sim) (fun () -> ());
  Sim.run sim;
  check_int "on-time schedules are not clamps" 3 (Sim.clamped_schedules sim)

(* An event at exactly the limit fires; one past it does not; the clock
   lands on the limit and stays there on a redundant call. *)
let test_run_until_boundary sim =
  let fired = ref [] in
  Sim.schedule sim ~delay:100 (fun () -> fired := 100 :: !fired);
  Sim.schedule sim ~delay:101 (fun () -> fired := 101 :: !fired);
  Sim.run_until sim 100;
  check (Alcotest.list Alcotest.int) "at-limit fires" [ 100 ] (List.rev !fired);
  check_int "now = limit" 100 (Sim.now sim);
  check_int "one left" 1 (Sim.pending sim);
  Sim.run_until sim 100;
  check_int "idempotent" 100 (Sim.now sim);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "rest fires" [ 100; 101 ]
    (List.rev !fired)

(* Cancelled timers never run, never count, and never advance the clock;
   [pending] excludes them. Both the wheel (short delay) and the far
   heap (beyond the wheel horizon) honour this. *)
let test_cancel_pending_timer sim =
  let fired = ref false in
  let near = Sim.timer_after sim ~delay:50 (fun () -> fired := true) in
  let far = Sim.timer_at sim 200_000 (fun () -> fired := true) in
  check_bool "near pending" true (Sim.timer_pending sim near);
  check_bool "far pending" true (Sim.timer_pending sim far);
  check_int "two queued" 2 (Sim.pending sim);
  Sim.cancel sim near;
  Sim.cancel sim far;
  check_bool "near cancelled" false (Sim.timer_pending sim near);
  check_int "pending excludes cancelled" 0 (Sim.pending sim);
  Sim.run sim;
  check_bool "never fired" false !fired;
  check_int "nothing processed" 0 (Sim.events_processed sim);
  check_int "clock never advanced" 0 (Sim.now sim)

(* Cancelling a timer that already fired is a no-op — in particular it
   must not kill an unrelated event that reuses the same pool cell. *)
let test_cancel_after_fire_noop sim =
  let fired = ref 0 in
  let tok = Sim.timer_at sim 10 (fun () -> incr fired) in
  Sim.run sim;
  check_int "fired" 1 !fired;
  check_bool "fired timer not pending" false (Sim.timer_pending sim tok);
  Sim.cancel sim tok;
  Sim.schedule sim ~delay:5 (fun () -> incr fired);
  Sim.cancel sim tok;
  Sim.run sim;
  check_int "reused cell survived the stale cancel" 2 !fired;
  check_int "both counted" 2 (Sim.events_processed sim)

(* 2^20 same-time events: sequence numbers stay monotone through pool
   growth after pool growth, so the fire order is exactly the schedule
   order. *)
let test_seq_monotone_2pow20 sim =
  let n = 1 lsl 20 in
  let next = ref 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    Sim.schedule sim ~delay:0 (fun () ->
        if !next <> i then ok := false;
        incr next)
  done;
  Sim.run sim;
  check_bool "fired in schedule order" true !ok;
  check_int "all fired" n (Sim.events_processed sim)

(* A chain of short hops that starts beyond the wheel horizon and then
   crosses rotation boundaries again and again. *)
let test_far_then_wheel_chain sim =
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 50 then Sim.schedule sim ~delay:9_999 hop
  in
  Sim.schedule sim ~delay:70_000 hop;
  Sim.run sim;
  check_int "hops" 50 !hops;
  check_int "final time" (70_000 + (49 * 9_999)) (Sim.now sim)

(* --- proc ------------------------------------------------------------- *)

(* [Proc]'s effects, handled by the unithread [Hosted.spawn] runs them
   on. *)

let test_proc_wait sim =
  let trace = ref [] in
  Hosted.spawn sim (fun () ->
      trace := ("p1", Sim.now sim) :: !trace;
      Proc.wait 100;
      trace := ("p1", Sim.now sim) :: !trace);
  Hosted.spawn sim (fun () ->
      Proc.wait 50;
      trace := ("p2", Sim.now sim) :: !trace);
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "interleaving"
    [ ("p1", 0); ("p2", 50); ("p1", 100) ]
    (List.rev !trace)

let test_proc_suspend_resume sim =
  let resumer = ref None in
  let stages = ref [] in
  Hosted.spawn sim (fun () ->
      stages := "before" :: !stages;
      Proc.suspend (fun resume -> resumer := Some resume);
      stages := "after" :: !stages);
  Sim.schedule sim ~delay:500 (fun () ->
      match !resumer with Some r -> r () | None -> Alcotest.fail "no resumer");
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "stages" [ "before"; "after" ]
    (List.rev !stages);
  check_int "resumed at" 500 (Sim.now sim)

let test_proc_double_resume_rejected sim =
  let resumer = ref None in
  Hosted.spawn sim (fun () ->
      Proc.suspend (fun resume -> resumer := Some resume));
  Sim.run sim;
  (match !resumer with Some r -> r () | None -> Alcotest.fail "no resumer");
  Sim.run sim;
  match !resumer with
  | Some r ->
    Alcotest.check_raises "double resume"
      (Failure "Proc.suspend: double resume") (fun () -> r ())
  | None -> Alcotest.fail "no resumer"

(* A resume kept from a suspension that was already resumed stays dead
   after the fiber parks again: calling it raises and leaves the fiber
   parked, and the live resume still wakes it. *)
let test_proc_stale_resume_rejected sim =
  let resumers = ref [] and woke = ref 0 in
  let park () =
    Proc.suspend (fun resume -> resumers := resume :: !resumers)
  in
  Hosted.spawn sim (fun () ->
      park ();
      incr woke;
      park ();
      incr woke);
  Sim.run sim;
  let first = List.hd !resumers in
  first ();
  Sim.run sim;
  check_int "woken by the first resume" 1 !woke;
  check_int "parked again" 2 (List.length !resumers);
  Alcotest.check_raises "stale resume"
    (Failure "Proc.suspend: double resume") first;
  Sim.run sim;
  check_int "the stale resume did not wake it" 1 !woke;
  List.hd !resumers ();
  Sim.run sim;
  check_int "the live resume did" 2 !woke

(* --- gate ------------------------------------------------------------- *)

let test_gate sim =
  let woke = ref (-1) in
  let gate = Gate.create sim in
  Gate.await gate (fun () -> woke := Sim.now sim);
  Sim.schedule sim ~delay:70 (fun () -> Gate.signal gate);
  Sim.run sim;
  check_int "woken" 70 !woke

(* A signal before the await is remembered, and the await consumes it
   at once: the continuation runs inside [await], from no event. *)
let test_gate_no_lost_wakeup sim =
  let gate = Gate.create sim in
  Gate.signal gate;
  Gate.signal gate;
  check_int "a signal with no waiter schedules nothing" 0 (Sim.pending sim);
  let woke = ref false in
  Gate.await gate (fun () -> woke := true);
  check_bool "pending signal consumed inside await" true !woke;
  check_int "no event" 0 (Sim.pending sim);
  (* the two signals coalesced: a second await must wait *)
  let woke2 = ref false in
  Gate.await gate (fun () -> woke2 := true);
  Sim.run sim;
  check_bool "coalesced" false !woke2;
  check_int "nothing ran" 0 (Sim.events_processed sim)

(* A signal to a parked continuation schedules it once, at the current
   time, behind what was already scheduled for that time. *)
let test_gate_wake_is_one_event sim =
  let gate = Gate.create sim in
  let log = ref [] in
  Gate.await gate (fun () -> log := ("woken", Sim.now sim) :: !log);
  Sim.schedule sim ~delay:30 (fun () ->
      Sim.schedule sim ~delay:0 (fun () -> log := ("before", Sim.now sim) :: !log);
      Gate.signal gate;
      check_int "one more event" 2 (Sim.pending sim);
      Gate.signal gate);
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "order" [ ("before", 30); ("woken", 30) ] (List.rev !log);
  check_int "two events after the first: no more" 3 (Sim.events_processed sim)

(* A gate takes one waiter: a second continuation awaiting it while the
   first is parked is a wiring bug. *)
let test_gate_second_waiter_rejected sim =
  let gate = Gate.create sim in
  Gate.await gate ignore;
  Alcotest.check_raises "second waiter"
    (Failure "Gate.await: already has a waiter") (fun () ->
      Gate.await gate ignore)

(* A gate round trip — park on [await], woken by [signal] — allocates
   nothing: the continuation is the actor's own closure, and the wake
   is one pool cell. The signal comes from one event closure that
   reschedules itself, so the window counts nothing but the round trips
   (and the boxed float [Gc.minor_words] returns at its start). *)
let test_gate_round_trip_allocates_nothing sim =
  let gate = Gate.create sim in
  let trips = 10_000 and warmup = 100 in
  let woken = ref 0 and words = ref 0. in
  let rec actor () =
    incr woken;
    Gate.await gate actor
  in
  Gate.await gate actor;
  let signals = ref 0 in
  let rec tick () =
    if !signals = warmup then words := Gc.minor_words ();
    if !signals = warmup + trips then words := Gc.minor_words () -. !words;
    if !signals < warmup + trips then begin
      incr signals;
      Gate.signal gate;
      Sim.schedule sim ~delay:1 tick
    end
  in
  Sim.schedule sim ~delay:1 tick;
  Sim.run sim;
  check_int "every signal woke the waiter" (trips + warmup) !woken;
  let per_trip = !words /. float_of_int trips in
  check_bool
    (Printf.sprintf "%.3f words per gate round trip, at most 0.01" per_trip)
    true (per_trip <= 0.01)

(* A suspension's resume stays dead once used, even after the fiber has
   since parked on a gate and been woken from it. *)
let test_stale_resume_after_gate sim =
  let resumer = ref None and gate = Gate.create sim in
  let stage = ref 0 in
  let await_gate () = Proc.suspend (fun resume -> Gate.await gate resume) in
  Hosted.spawn sim (fun () ->
      Proc.suspend (fun resume -> resumer := Some resume);
      stage := 1;
      await_gate ();
      stage := 2;
      await_gate ();
      stage := 3);
  Sim.run sim;
  let resume =
    match !resumer with Some r -> r | None -> Alcotest.fail "no resumer"
  in
  resume ();
  Sim.run sim;
  check_int "resumed, parked on the gate" 1 !stage;
  Gate.signal gate;
  Sim.run sim;
  check_int "woken by the gate, parked again" 2 !stage;
  Alcotest.check_raises "stale resume"
    (Failure "Proc.suspend: double resume") resume;
  Sim.run sim;
  check_int "the stale resume did not wake it" 2 !stage;
  Gate.signal gate;
  Sim.run sim;
  check_int "the gate still does" 3 !stage

(* --- rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let g = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniform_mean () =
  let g = Rng.create 99 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform g
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let g = Rng.create 3 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential g ~mean:42.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 42" true (abs_float (mean -. 42.) < 1.5)

let test_rng_discrete () =
  let g = Rng.create 5 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.discrete g [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "weights respected" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let frac2 = float_of_int counts.(2) /. 30_000. in
  check_bool "p(2) near 0.7" true (abs_float (frac2 -. 0.7) < 0.02)

let test_zipf () =
  let g = Rng.create 17 in
  let z = Rng.Zipf.create ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let v = Rng.Zipf.sample g z in
    check_bool "in range" true (v >= 0 && v < 1000);
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 0 most popular" true
    (counts.(0) > counts.(10) && counts.(10) > counts.(500))

let test_zipf_theta_zero_uniform () =
  let g = Rng.create 23 in
  let z = Rng.Zipf.create ~n:100 ~theta:0. in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    counts.(Rng.Zipf.sample g z) <- counts.(Rng.Zipf.sample g z) + 1
  done;
  let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
  check_bool "roughly uniform" true (float_of_int mx /. float_of_int mn < 2.)

(* The generator's outputs, pinned: every seeded run draws from it, so
   a change to how its state is kept must not move one bit. *)
let test_rng_pinned () =
  let g = Rng.create 42 in
  check (Alcotest.list Alcotest.int64) "bits64"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ]
    (List.init 3 (fun _ -> Rng.bits64 g));
  check (Alcotest.list Alcotest.int) "int"
    [ 2; 492; 1345; 1514; 615; 4766 ]
    (List.init 6 (fun i -> Rng.int g ((i * 1000) + 7)));
  check (Alcotest.list Alcotest.string) "exponential"
    [ "0x1.bf1f27cd9fbf4p+4"; "0x1.2129a5e50f8c2p+7"; "0x1.b2b0b966f5599p+7" ]
    (List.init 3 (fun _ -> Printf.sprintf "%h" (Rng.exponential g ~mean:100.)))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int respects bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let g = Rng.create seed in
      let v = Rng.int g n in
      v >= 0 && v < n)

let prop_run_until_split_equivalent =
  (* running to t1 then t2 is the same as running straight to t2 *)
  QCheck.Test.make ~name:"run_until splits are equivalent" ~count:100
    QCheck.(pair (list (int_range 0 1000)) (pair (int_range 0 500) (int_range 500 1200)))
    (fun (delays, (t1, t2)) ->
      let run_with split =
        let sim = Sim.create () in
        let fired = ref [] in
        List.iter
          (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := d :: !fired))
          delays;
        if split then Sim.run_until sim t1;
        Sim.run_until sim t2;
        (List.rev !fired, Sim.now sim)
      in
      run_with true = run_with false)

let test_split_diverges () =
  let g = Rng.create 1 in
  let g2 = Rng.split g in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.bits64 g = Rng.bits64 g2 then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ("clock", [ Alcotest.test_case "conversions" `Quick test_clock ]);
      ( "sim",
        [
          sim_case "event order" test_sim_order;
          sim_case "run_until" test_sim_run_until;
          sim_case "nested schedule" test_sim_nested_schedule;
          sim_case "negative delay" test_sim_negative_delay_clamped;
          sim_case "clamp counter" test_clamped_schedules_counter;
          sim_case "run_until boundary" test_run_until_boundary;
          sim_case "cancel pending" test_cancel_pending_timer;
          sim_case "cancel after fire" test_cancel_after_fire_noop;
          sim_case "seq monotone 2^20" test_seq_monotone_2pow20;
          sim_case "far-then-wheel chain" test_far_then_wheel_chain;
          q prop_sim_stable_order;
        ] );
      ( "proc",
        [
          sim_case "wait interleaving" test_proc_wait;
          sim_case "suspend/resume" test_proc_suspend_resume;
          sim_case "double resume" test_proc_double_resume_rejected;
          sim_case "stale resume" test_proc_stale_resume_rejected;
          sim_case "gate" test_gate;
          sim_case "gate no lost wakeup" test_gate_no_lost_wakeup;
          sim_case "gate wake is one event" test_gate_wake_is_one_event;
          sim_case "gate second waiter" test_gate_second_waiter_rejected;
          sim_case "gate round trip allocates nothing"
            test_gate_round_trip_allocates_nothing;
          sim_case "stale resume after gate wake" test_stale_resume_after_gate;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "discrete" `Quick test_rng_discrete;
          Alcotest.test_case "zipf" `Quick test_zipf;
          Alcotest.test_case "zipf theta=0" `Quick
            test_zipf_theta_zero_uniform;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "pinned outputs" `Quick test_rng_pinned;
          q prop_rng_int_bounds;
        ] );
      ("properties", [ q prop_run_until_split_equivalent ]);
    ]
