(* Critical-path profiler tests: the phase-sum invariant across every
   system x fabric x topology combination (matrix + qcheck), the
   profiler's on-CPU phases agreeing with the per-CPU accountant to the
   cycle over the same matrix, the perturbation-freedom claim
   (profiling on/off yields byte-identical measurements), attribution
   direction on clean runs (yield systems never busy-wait; spinning
   baselines never enter the fetch-wire phase), marshal identity
   through forked sweep workers, folded-stack well-formedness, and the
   failure direction of the tail-forensics oracles on synthetic
   fixtures — including the busy-wait-in-the-tail fixture for a yield
   system that the acceptance criteria require to FAIL. *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Export = Adios_core.Export
module Phase = Adios_prof.Phase
module Profiler = Adios_prof.Profiler
module Injector = Adios_fault.Injector
module Cluster = Adios_cluster.Cluster
module Clock = Adios_engine.Clock
module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Accountant = Adios_obs.Accountant
module Registry = Adios_obs.Registry

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let no_violations name vs = check Alcotest.(list string) name [] vs

let all_systems =
  [ Config.Dilos; Config.Dilos_p; Config.Hermit; Config.Adios; Config.Steal ]

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

(* The three fabrics of the invariant matrix: clean, anomalous (drops +
   spikes + stalls with recovery armed), and a 3-node R=2 cluster that
   loses a node mid-run. *)
let clean cfg = cfg

let faulty cfg =
  {
    cfg with
    Config.fault =
      {
        Injector.none with
        Injector.drop = 0.05;
        spike = 0.05;
        stall = 0.02;
        stall_cycles = Clock.of_us 20.;
        seed = 7;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

let clustered cfg =
  {
    cfg with
    Config.cluster =
      {
        Cluster.nodes = 3;
        replication = 2;
        crashes = 1;
        crash_at = Clock.of_us 2000.;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

let tweaks = [ ("clean", clean); ("faulty", faulty); ("cluster", clustered) ]

(* test_fault's pin (d): stride prefetching on a scan workload over a
   lossy fabric. A prefetch's issue cost is the one wait between a
   fault's QP check and its post, so a timer's repost can fill the QP
   meanwhile and the post backs off. *)
let prefetch_scan system =
  {
    (Config.default system) with
    Config.prefetch = Config.Stride 8;
    fault =
      {
        Injector.none with
        Injector.drop = 0.05;
        spike = 0.02;
        stall = 0.01;
        stall_cycles = Clock.of_us 20.;
        seed = 11;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

(* No replica to fail over to: the crash surfaces errored requests,
   which the bands drop but both sides of the CPU identity count. *)
let unreplicated cfg =
  let c = clustered cfg in
  let one_copy = { c.Config.cluster with Cluster.nodes = 2; replication = 1 } in
  { c with Config.cluster = one_copy }

let run_profiled ?(cfg_tweak = clean) ?(seed = 42) ?metrics system ~load
    ~requests =
  let cfg = cfg_tweak { (Config.default system) with Config.seed } in
  Runner.run cfg (small_array ()) ~offered_krps:load ~requests ?metrics
    ~profile:true ()

let summary_exn name (r : Runner.result) =
  match r.Runner.prof with
  | Some s -> s
  | None -> Alcotest.fail (name ^ ": profiled run carries no prof summary")

(* The invariant bundle every profiled run must satisfy: no per-request
   sum violations, every admitted request finalized, bands partitioning
   the measured population, and per-band cycle conservation. *)
let assert_invariants name (r : Runner.result) =
  let s = summary_exn name r in
  check_int (name ^ ": phase-sum violations") 0 s.Profiler.violations;
  check_int (name ^ ": profiled = admitted") r.Runner.admitted
    s.Profiler.profiled;
  let band_requests =
    Array.fold_left (fun acc b -> acc + b.Profiler.requests) 0 s.Profiler.bands
  in
  check_int (name ^ ": bands partition the measured population")
    s.Profiler.measured band_requests;
  Array.iter
    (fun b ->
      check_int
        (Printf.sprintf "%s: band %s cycles conserve" name b.Profiler.band)
        b.Profiler.e2e_cycles
        (Array.fold_left ( + ) 0 b.Profiler.phase_cycles))
    s.Profiler.bands

(* Cross-layer identity: a request in an on-CPU phase is exactly what
   its worker's accountant state says it is doing, so over a run the
   profiler's cycles in each such phase equal the worker CPUs' cycles
   in the matching state (dispatcher excluded). Both sides come from
   the run's registry, whose phase series count warmup and errored
   requests just as the accountant does. Two exceptions: [Tx] runs on
   through the reply wire while the CPU state covers only the post, and
   under [Tx_sync_spin] (no run here uses it) a request closes at client
   RX while its worker may still spin on the CQE. *)
let assert_cpu_identity name (r : Runner.result) reg =
  let series = Registry.scalar_series reg in
  let read fmt =
    Printf.ksprintf
      (fun s ->
        match List.assoc_opt s series with
        | Some read -> int_of_float (read ())
        | None -> Alcotest.fail (name ^ ": no series " ^ s))
      fmt
  in
  let sys = r.Runner.system and workers = r.Runner.cpu.Accountant.cpus - 1 in
  List.iter
    (fun p ->
      match Phase.cpu_state p with
      | Some st when p <> Phase.Tx ->
        let state = Accountant.state_name st in
        let cpu_cycles =
          List.fold_left ( + ) 0
            (List.init workers (fun cpu ->
                 read "adios_cpu_state_cycles_total{system=%s,cpu=%d,state=%s}"
                   sys cpu state))
        in
        check_int
          (Printf.sprintf "%s: %s phase = %s state" name (Phase.name p) state)
          cpu_cycles
          (read "adios_req_phase_cycles_total{system=%s,phase=%s}" sys
             (Phase.name p))
      | Some _ | None -> ())
    Phase.all

let test_invariant_matrix () =
  let matrix =
    List.concat_map
      (fun system -> List.map (fun tweak -> (system, tweak)) tweaks)
      all_systems
  in
  List.iter
    (fun (system, (tname, tweak)) ->
      let name = Printf.sprintf "%s/%s" (Config.system_name system) tname in
      let metrics = Registry.create () in
      let r =
        run_profiled ~cfg_tweak:tweak ~metrics system ~load:800.
          ~requests:6000
      in
      assert_invariants name r;
      assert_cpu_identity name r metrics)
    (matrix @ [ (Config.Dilos, ("unreplicated", unreplicated)) ]);
  List.iter
    (fun system ->
      let name = Config.system_name system ^ "/prefetch-scan" in
      let metrics = Registry.create () in
      let r =
        Runner.run (prefetch_scan system)
          (Adios_apps.Rocksdb.app ~scan_fraction:0.2 ())
          ~offered_krps:100. ~requests:2000 ~metrics ~profile:true ()
      in
      assert_invariants name r;
      assert_cpu_identity name r metrics)
    all_systems

(* qcheck widens the matrix over seeds and loads: any (system, fabric,
   seed, load) draw must preserve the invariant — the per-request
   telescoping proof does not depend on the schedule. *)
let prop_phase_sum_invariant =
  QCheck.Test.make ~name:"phase cycles sum to e2e on any config" ~count:15
    QCheck.(
      quad (int_range 0 4) (int_range 0 2) (int_range 1 10_000)
        (int_range 2 16))
    (fun (sysi, tweaki, seed, load_hundreds) ->
      let system = List.nth all_systems sysi in
      let _, tweak = List.nth tweaks tweaki in
      let load = float_of_int (load_hundreds * 100) in
      let r =
        run_profiled ~cfg_tweak:tweak ~seed system ~load ~requests:3000
      in
      let s = summary_exn "qcheck" r in
      s.Profiler.violations = 0 && s.Profiler.profiled = r.Runner.admitted)

(* Perturbation freedom: the whole exported row — every measurement the
   repo reports anywhere — is byte-identical with profiling on or off. *)
let test_perturbation_free () =
  List.iter
    (fun system ->
      let go profile =
        let cfg = Config.default system in
        Runner.run cfg (small_array ()) ~offered_krps:900. ~requests:5000
          ~profile ()
      in
      let off = go false and on = go true in
      check Alcotest.string
        (Config.system_name system ^ ": csv row identical on/off")
        (Export.csv_row off) (Export.csv_row on);
      check_bool
        (Config.system_name system ^ ": prof present iff profiled")
        true
        (off.Runner.prof = None && on.Runner.prof <> None))
    all_systems

let phase_total s p =
  Array.fold_left
    (fun acc b -> acc + b.Profiler.phase_cycles.(Phase.index p))
    0 s.Profiler.bands

(* Clean-fabric attribution direction, per system class: a yield system
   never charges a cycle to busy-wait (its waits are wire + ready
   queue); a spinning baseline never enters the fetch-wire phase (its
   waits are all on-CPU). *)
let test_attribution_direction () =
  List.iter
    (fun system ->
      let r = run_profiled system ~load:1000. ~requests:6000 in
      let s = summary_exn (Config.system_name system) r in
      let busy = phase_total s Phase.Busy_wait
      and wire = phase_total s Phase.Fetch_wire in
      if List.mem (Config.system_name system) Oracle.yield_systems then begin
        check_int
          (Config.system_name system ^ ": yield system never busy-waits")
          0 busy;
        check_bool
          (Config.system_name system ^ ": waits show up as fetch wire")
          true (wire > 0)
      end
      else begin
        check_bool
          (Config.system_name system ^ ": baseline spins on its faults")
          true (busy > 0);
        check_int
          (Config.system_name system ^ ": baseline never yields to the wire")
          0 wire
      end)
    all_systems

(* --- sweep integration --------------------------------------------------- *)

let tiny_spec =
  Spec.make ~name:"prof-tiny"
    ~systems:[ Config.Adios; Config.Dilos ]
    ~apps:[ "array" ] ~loads:[ 400.; 1200. ] ~requests:3000 ()

let test_sweep_phases () =
  let run = Sweep.run ~jobs:1 ~profile:true tiny_spec in
  let pds = Dataset.phases_of_run run in
  (* one row per (point, band) *)
  check_int "rows = points x bands"
    (Spec.point_count tiny_spec * Profiler.band_count)
    (Dataset.length pds);
  no_violations "phase conservation on the sweep dataset"
    (Oracle.check_phase_conservation pds);
  (* forked workers marshal Runner.result (prof summary included) back:
     the phase dataset must survive the round-trip byte-identically *)
  let forked = Sweep.run ~jobs:2 ~profile:true tiny_spec in
  check Alcotest.string "phases CSV identical through forked workers"
    (Dataset.to_csv pds)
    (Dataset.to_csv (Dataset.phases_of_run forked));
  (* and the unprofiled dataset is byte-identical to the profiled one *)
  check Alcotest.string "main CSV identical with profiling on"
    (Dataset.to_csv (Dataset.of_run (Sweep.run ~jobs:1 tiny_spec)))
    (Dataset.to_csv (Dataset.of_run run))

(* --- folded stacks ------------------------------------------------------- *)

let test_folded_stacks () =
  let r = run_profiled Config.Adios ~load:1000. ~requests:6000 in
  let s = summary_exn "folded" r in
  let lines = Profiler.folded ~root:"Adios/array" s in
  check_bool "nonempty" true (lines <> []);
  let phase_names = List.map Phase.name Phase.all in
  let band_names = Array.to_list Profiler.band_names in
  List.iter
    (fun line ->
      match String.split_on_char ';' line with
      | [ root; band; leaf ] -> (
        check Alcotest.string "root frame" "Adios/array" root;
        check_bool ("known band: " ^ band) true (List.mem band band_names);
        match String.split_on_char ' ' leaf with
        | [ phase; cycles ] ->
          check_bool ("known phase: " ^ phase) true
            (List.mem phase phase_names);
          check_bool "positive cycle count" true
            (match int_of_string_opt cycles with
            | Some c -> c > 0
            | None -> false)
        | _ -> Alcotest.fail ("malformed leaf: " ^ leaf))
      | _ -> Alcotest.fail ("malformed folded line: " ^ line))
    lines

(* --- oracle failure directions on synthetic fixtures --------------------- *)

(* A hand-written tail-forensics row: identity columns, band population,
   then the 12 phase columns with every unnamed phase at zero. *)
let fixture_row ~system ~band ~requests ~e2e cells =
  let cell name =
    string_of_int
      (match List.assoc_opt name cells with Some v -> v | None -> 0)
  in
  [ "200.0"; "1"; system; "array"; band; string_of_int requests;
    string_of_int e2e ]
  @ List.map cell Export.phase_column_names

let fixture rows = { Dataset.header = Dataset.phase_columns; rows }

(* Healthy rows: an Adios tail dominated by irreducible wire time, a
   DiLOS tail dominated by spinning + queueing. *)
let healthy =
  fixture
    [
      fixture_row ~system:"Adios" ~band:"p99_p999" ~requests:40 ~e2e:1_000_000
        [ ("fetch_wire_cycles", 700_000); ("req_wire_cycles", 100_000);
          ("app_compute_cycles", 100_000); ("tx_cycles", 100_000) ];
      fixture_row ~system:"DiLOS" ~band:"p999_max" ~requests:4 ~e2e:1_000_000
        [ ("busy_wait_cycles", 500_000); ("queue_cycles", 300_000);
          ("app_compute_cycles", 200_000) ];
    ]

(* The acceptance fixture: a yield system whose tail is secretly
   busy-waiting. Attribution must call this out. *)
let busywait_in_tail =
  fixture
    [
      fixture_row ~system:"Adios" ~band:"p999_max" ~requests:10 ~e2e:1_000_000
        [ ("busy_wait_cycles", 600_000); ("app_compute_cycles", 200_000);
          ("pf_software_cycles", 200_000) ];
    ]

let test_tail_attribution_passes_healthy () =
  no_violations "healthy tails pass" (Oracle.check_phases healthy)

let test_tail_attribution_fails_busywait () =
  check_bool "busy-wait in a yield system's tail is flagged" true
    (Oracle.check_tail_attribution busywait_in_tail <> []);
  (* the fixture conserves cycles — only attribution fires *)
  no_violations "fixture conserves cycles"
    (Oracle.check_phase_conservation busywait_in_tail)

let test_conservation_fails_on_gap () =
  let broken =
    fixture
      [
        fixture_row ~system:"Adios" ~band:"p0_p50" ~requests:100 ~e2e:500_000
          [ ("fetch_wire_cycles", 400_000) ];
      ]
  in
  check_bool "a cycle gap is flagged" true
    (Oracle.check_phase_conservation broken <> [])

(* Empty bands (no tail population) must not divide by zero or fire. *)
let test_tail_attribution_skips_empty_bands () =
  let empty_tail =
    fixture
      [ fixture_row ~system:"Adios" ~band:"p999_max" ~requests:0 ~e2e:0 [] ]
  in
  no_violations "empty band rows are skipped"
    (Oracle.check_phases empty_tail)

let () =
  Alcotest.run "prof"
    [
      ( "invariant",
        [
          Alcotest.test_case "system x fabric matrix" `Quick
            test_invariant_matrix;
          QCheck_alcotest.to_alcotest prop_phase_sum_invariant;
        ] );
      ( "perturbation",
        [ Alcotest.test_case "csv identical on/off" `Quick
            test_perturbation_free ] );
      ( "attribution",
        [
          Alcotest.test_case "yield vs spin direction" `Quick
            test_attribution_direction;
        ] );
      ( "sweep",
        [ Alcotest.test_case "phase dataset + fork replay" `Quick
            test_sweep_phases ] );
      ( "folded",
        [ Alcotest.test_case "well-formed stacks" `Quick test_folded_stacks ]
      );
      ( "oracle",
        [
          Alcotest.test_case "healthy tails pass" `Quick
            test_tail_attribution_passes_healthy;
          Alcotest.test_case "busy-wait tail fails" `Quick
            test_tail_attribution_fails_busywait;
          Alcotest.test_case "conservation gap fails" `Quick
            test_conservation_fails_on_gap;
          Alcotest.test_case "empty bands skipped" `Quick
            test_tail_attribution_skips_empty_bands;
        ] );
    ]
