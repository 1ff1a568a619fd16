(* Golden-tier sweep tests: run the canonical reduced array spec once and
   hold it against every figure-shape oracle plus the checked-in golden
   CSV. The same run, repeated through the forked runner and through
   the domains backend (every checked-in spec), must reproduce the
   dataset bit-for-bit — the determinism claim the whole golden tier
   rests on — and every golden spec's engine-event total is pinned on
   the sequential, forked and domains runs. The steal-reduced spec gets
   its own golden/oracle suite for the Adios-vs-work-stealing dispatch
   contrast. A spec's variant axis keeps its place in the point order
   and cannot move a point's seed, and a two-variant spec gives the same
   CSV on one process and on forked workers. Every registry app, swept
   on each backend with its points sharing one dataset image, must give
   the dataset the same points give one at a time on fresh builds, also
   where a fork worker runs two silo points on its image. A small spec
   checks the contract the three backends share (failure naming,
   progress order), that the fork backend runs a block on at most
   [jobs] workers and leaves none behind however the sweep ends, and
   that the sequential backend lets go of each point's testbed.
   Synthetic datasets then exercise each oracle's failure direction, so
   a broken oracle (one that never fires) also fails here. *)

module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Clock = Adios_engine.Clock
module Cluster = Adios_cluster.Cluster
module Registry = Adios_obs.Registry
module Openmetrics = Adios_obs.Openmetrics

let check = Alcotest.check
let no_violations name vs = check Alcotest.(list string) name [] vs

(* Engine events summed over each golden spec's points: the simulator's
   deterministic work measure, pinned exactly. A change to any of these
   means the engine now processes a different event stream for the same
   spec — even where no CSV column moves. *)
let golden_sim_events =
  [
    ("array-reduced", 2_988_041);
    ("memcached-reduced", 3_445_860);
    ("rocksdb-scan-reduced", 9_773_367);
    ("cluster-reduced", 856_449);
    ("steal-reduced", 2_032_387);
  ]

let sim_events run =
  List.fold_left (fun acc (_, r) -> acc + r.Runner.sim_events) 0 run

(* One lazily-run sweep per golden spec, forced only for the specs a
   test asks about, so each (spec, backend) pair is simulated at most
   once per process. *)
let memo run =
  let runs = List.map (fun spec -> (spec, lazy (run spec))) Spec.all_goldens in
  fun spec -> Lazy.force (List.assq spec runs)

(* The jobs=2 forked runs, shared by the replay and determinism tests;
   both groups run before any test spawns a domain. *)
let forked = memo (Sweep.run ~jobs:2)

(* One sequential run shared by every golden test below; a second run
   through the forked workers checks replay identity. The shared run is
   profiled: attribution is perturbation-free, so the main dataset must
   still match the unprofiled forked replay and the golden bytes — the
   replay test doubles as the sweep-scale proof of that claim. *)
let sequential = lazy (Sweep.run ~jobs:1 ~profile:true Spec.reduced_array)
let dataset = lazy (Dataset.of_run (Lazy.force sequential))
let phase_dataset = lazy (Dataset.phases_of_run (Lazy.force sequential))

(* --- the golden sweep --------------------------------------------------- *)

let test_replay_bit_identical () =
  check Alcotest.string
    "same seed, same bytes (jobs=1 profiled vs jobs=2 unprofiled)"
    (Dataset.to_csv (Lazy.force dataset))
    (Dataset.to_csv (Dataset.of_run (forked Spec.reduced_array)))

let test_golden_match () =
  match Dataset.load ~path:"golden/array-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "identical to the golden"
      (Oracle.compare_golden ~golden (Lazy.force dataset))

let test_knees_detected () =
  let ds = Lazy.force dataset in
  no_violations "all four systems knee in-grid"
    (Oracle.check_knees_detected ds ~app:"array");
  List.iter
    (fun (system, knee) ->
      check Alcotest.bool
        (Printf.sprintf "%s knee is a grid load" system)
        true
        (match knee with
        | Some l -> List.mem l Spec.reduced_array.Spec.loads
        | None -> false))
    (Oracle.knees ds ~app:"array")

let test_adios_outlasts_baselines () =
  let ds = Lazy.force dataset in
  no_violations "Adios knee >= every baseline's"
    (Oracle.check_ranking ds ~app:"array");
  (* the ordering the oracle enforces, asserted directly *)
  let knee sys =
    match Oracle.knee ds ~system:sys ~app:"array" with
    | Some l -> l
    | None -> infinity
  in
  List.iter
    (fun baseline ->
      check Alcotest.bool
        (Printf.sprintf "Adios knee >= %s knee" baseline)
        true
        (knee "Adios" >= knee baseline))
    [ "Hermit"; "DiLOS"; "DiLOS-P" ]

let test_throughput_monotone () =
  no_violations "throughput climbs then plateaus"
    (Oracle.check_throughput_monotone (Lazy.force dataset))

let test_conservation () =
  no_violations "counters conserve requests"
    (Oracle.check_conservation (Lazy.force dataset))

let test_phase_golden_match () =
  match Dataset.load ~path:"golden/array-reduced-phases.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "identical to the tail-forensics golden"
      (Oracle.compare_golden ~golden (Lazy.force phase_dataset))

let test_phase_oracles () =
  no_violations "phase conservation + tail attribution"
    (Oracle.check_phases (Lazy.force phase_dataset))

let test_csv_round_trip () =
  let ds = Lazy.force dataset in
  match Dataset.of_csv (Dataset.to_csv ds) with
  | Error e -> Alcotest.fail e
  | Ok ds' ->
    check Alcotest.bool "parse . print = id" true (ds = ds');
    check Alcotest.int "rows" (Spec.point_count Spec.reduced_array)
      (Dataset.length ds')

(* --- the cluster golden -------------------------------------------------- *)

(* The topology-grid sweep: one sequential run shared by the golden,
   replay and oracle-bundle tests below. *)
let cluster_sequential = lazy (Sweep.run ~jobs:1 Spec.cluster_reduced)

let cluster_dataset =
  lazy (Dataset.of_run ~cluster:true (Lazy.force cluster_sequential))

let test_cluster_replay_bit_identical () =
  check Alcotest.string
    "same seed, same bytes across crash schedules (jobs=1 vs jobs=2)"
    (Dataset.to_csv (Lazy.force cluster_dataset))
    (Dataset.to_csv
       (Dataset.of_run ~cluster:true (forked Spec.cluster_reduced)))

let test_cluster_golden_match () =
  match Dataset.load ~path:"golden/cluster-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "identical to the cluster golden"
      (Oracle.compare_golden ~golden (Lazy.force cluster_dataset))

let test_cluster_oracles () =
  let ds = Lazy.force cluster_dataset in
  no_violations "failover + replication-tail gates"
    (Oracle.check_cluster ds);
  (* the headline claims, asserted directly on the rows: a crash with
     R = 2 rides through error-free on failover reads; with R = 1 the
     dead primary's pages must error out *)
  List.iter
    (fun row ->
      if Dataset.geti ds row "crashes" > 0 then begin
        check Alcotest.int "the scheduled crash fired" 1
          (Dataset.geti ds row "nodes_failed");
        if Dataset.geti ds row "replication" >= 2 then begin
          check Alcotest.int "R=2: zero errored requests" 0
            (Dataset.geti ds row "errored");
          check Alcotest.bool "R=2: reads failed over" true
            (Dataset.geti ds row "failovers" > 0)
        end
        else
          check Alcotest.bool "R=1: errors surface" true
            (Dataset.geti ds row "errored" > 0)
      end)
    ds.Dataset.rows

(* --- the steal-dispatch golden ------------------------------------------- *)

(* The Adios-vs-Steal dispatch contrast at 16 workers: one sequential
   run shared by the golden, oracle-bundle and domains-backend tests. *)
let steal_sequential = lazy (Sweep.run ~jobs:1 Spec.steal_reduced)
let steal_dataset = lazy (Dataset.of_run (Lazy.force steal_sequential))

let test_steal_golden_match () =
  match Dataset.load ~path:"golden/steal-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "identical to the steal golden"
      (Oracle.compare_golden ~golden (Lazy.force steal_dataset))

let test_steal_oracles () =
  let ds = Lazy.force steal_dataset in
  no_violations "steal-dispatch gates" (Oracle.check_steal ds);
  (* the dispatch split, asserted directly on the rows: only the
     work-stealing variant ever steals, and it must actually do so
     (otherwise it silently degenerated into plain d-FCFS and the
     contrast with single-queue PF-aware dispatch is vacuous) *)
  List.iter
    (fun row ->
      if not (String.equal (Dataset.get ds row "system") "Steal") then
        check Alcotest.int "single-queue rows never steal" 0
          (Dataset.geti ds row "steals"))
    ds.Dataset.rows;
  check Alcotest.bool "the work-stealing rows steal" true
    (List.exists
       (fun row ->
         String.equal (Dataset.get ds row "system") "Steal"
         && Dataset.geti ds row "steals" > 0)
       ds.Dataset.rows)

(* --- engine-event determinism -------------------------------------------- *)

(* Sequential baselines, reusing the shared lazy runs where one exists
   so each spec is simulated sequentially at most once per process;
   the domains runs are likewise shared by the byte and event tests. *)
let baseline spec =
  if spec == Spec.reduced_array then Lazy.force sequential
  else if spec == Spec.cluster_reduced then Lazy.force cluster_sequential
  else if spec == Spec.steal_reduced then Lazy.force steal_sequential
  else Sweep.run ~jobs:1 spec

let sequential_run = memo baseline
let domains_run = memo (Sweep.run ~jobs:4 ~mode:`Domains)

let check_pinned ~backend spec run =
  check Alcotest.int
    (Printf.sprintf "%s sim_events (%s)" spec.Spec.name backend)
    (List.assoc spec.Spec.name golden_sim_events)
    (sim_events run)

(* The gate itself: a golden spec without a pin would escape every
   event-count check below. *)
let test_sim_events_gate () =
  check
    Alcotest.(list string)
    "a pin per golden spec, in spec order"
    (List.map (fun (s : Spec.t) -> s.Spec.name) Spec.all_goldens)
    (List.map fst golden_sim_events)

(* A spec's event total must reproduce its pin exactly and must not
   depend on the job count: jobs=1 runs in process, jobs=2 forks. *)
let pinned name spec ~jobs =
  let run = if jobs = 1 then sequential_run else forked in
  Alcotest.test_case (Printf.sprintf "%s jobs=%d" name jobs) `Quick (fun () ->
      check_pinned ~backend:(Printf.sprintf "jobs=%d" jobs) spec (run spec))

(* --- the domains backend ------------------------------------------------- *)

let spec_csv spec run =
  Dataset.to_csv (Dataset.of_run ~cluster:(Spec.clustered spec) run)

(* The `Domains claim from sweep.mli, gated on every checked-in spec:
   four domains sharing one point cursor produce the same CSV bytes as
   the in-process sequential runner. Together with the jobs=2 fork
   tests above this pins all three backends to one output. *)
let test_domains_bit_identical () =
  List.iter
    (fun spec ->
      check Alcotest.string
        (spec.Spec.name ^ ": same bytes (jobs=1 vs domains jobs=4)")
        (spec_csv spec (sequential_run spec))
        (spec_csv spec (domains_run spec)))
    Spec.all_goldens

let test_sim_events_pinned () =
  List.iter
    (fun spec ->
      check_pinned ~backend:"domains jobs=4" spec (domains_run spec))
    Spec.all_goldens

(* The metrics path under domains: the OpenMetrics exposition of the
   tiny fixed run, rendered on a spawned domain, must match the golden
   that test_obs regenerates from a main-domain run — any domain-local
   state leaking into the registry or the runner's counters would show
   up as a byte diff. *)
let test_domains_metrics_identical () =
  let render () =
    let reg = Registry.create () in
    let _ =
      Runner.run (Config.default Config.Adios)
        (Adios_apps.Array_bench.app ~pages:2048 ())
        ~offered_krps:300. ~requests:500 ~metrics:reg ()
    in
    Openmetrics.render reg
  in
  let on_worker = Domain.join (Domain.spawn render) in
  let golden =
    In_channel.with_open_bin "golden/tiny-metrics.prom" In_channel.input_all
  in
  check Alcotest.string "worker-domain exposition matches the golden"
    golden on_worker

(* --- the backend contract ------------------------------------------------ *)

(* What every backend promises beyond identical results, on a spec
   small enough to run twice on each backend: six short array points. *)
let contract_spec =
  Spec.make ~name:"contract" ~systems:[ Config.Adios; Config.Hermit ]
    ~loads:[ 200.; 600.; 1000. ] ~requests:300 ()

let backends =
  [ ("sequential", 1, `Fork); ("fork", 2, `Fork); ("domains", 2, `Domains) ]

let contract_points = Array.of_list (Spec.points contract_spec)

(* Points 1 and 3 refuse to start: every backend must surface the
   failure, and the parallel ones must name the same, lowest failing
   point however their workers interleave. *)
let refuse_two (c : Config.t) =
  if
    c.Config.seed = contract_points.(1).Spec.point_seed
    || c.Config.seed = contract_points.(3).Spec.point_seed
  then failwith "refused"
  else c

(* One pass over the backends, fork before domains because OCaml 5
   refuses to fork a process that has ever spawned a domain: per
   backend, the failing run's message and a clean run's progress trace
   of (point index, domain). The two tests below read their halves;
   their group runs before any other test spawns a domain. *)
let contract_runs =
  lazy
    (List.map
       (fun (name, jobs, mode) ->
         let failure =
           match Sweep.run ~jobs ~mode ~cfg_tweak:refuse_two contract_spec with
           | _ -> None
           | exception Failure msg -> Some msg
         in
         let seen = ref [] in
         let progress (p : Spec.point) _ =
           seen := (p.Spec.index, (Domain.self () :> int)) :: !seen
         in
         ignore (Sweep.run ~jobs ~mode ~progress contract_spec);
         (name, jobs, failure, List.rev !seen))
       backends)

let test_contract_failure () =
  let prefix =
    "sweep point " ^ Sweep.point_label contract_points.(1) ^ ": "
  in
  List.iter
    (fun (name, jobs, failure, _) ->
      match failure with
      | None -> Alcotest.failf "%s: a failing point must not be swallowed" name
      | Some msg when jobs = 1 ->
        check Alcotest.string "sequential lets the point's failure through"
          "refused" msg
      | Some msg ->
        check Alcotest.bool
          (Printf.sprintf "%s names the lowest failing point (%s)" name msg)
          true
          (String.starts_with ~prefix msg))
    (Lazy.force contract_runs)

let test_contract_progress () =
  let self = (Domain.self () :> int) in
  List.iter
    (fun (name, _, _, seen) ->
      check
        Alcotest.(list (pair int int))
        (name ^ ": once per point, in points order, on the calling domain")
        (Array.to_list
           (Array.map (fun (p : Spec.point) -> (p.Spec.index, self))
              contract_points))
        seen)
    (Lazy.force contract_runs)

(* --- the fork backend's pools ---------------------------------------------

   These fork, so the group lists them ahead of the contract tests,
   whose runs spawn a domain. *)

(* No forked worker may outlive Sweep.run: waitpid must find no child,
   exited or running. *)
let check_no_child () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "a worker is still running"
  | pid, _ -> Alcotest.failf "worker %d exited but was never reaped" pid

(* The contract spec is one block of six points: at jobs=2 they run on
   two long-lived workers, not one process per point. *)
let test_pool_processes () =
  let log = Filename.temp_file "sweep-pids" ".txt" in
  let note_pid c =
    Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o600 log (fun oc ->
        Printf.fprintf oc "%d\n" (Unix.getpid ()));
    c
  in
  ignore (Sweep.run ~jobs:2 ~cfg_tweak:note_pid contract_spec);
  let pids =
    In_channel.with_open_bin log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove log;
  check Alcotest.int "points run" (Array.length contract_points)
    (List.length pids);
  check Alcotest.int "worker processes" 2
    (List.length (List.sort_uniq String.compare pids))

(* A worker that dies mid-point fails that point, through the EOF on
   its result pipe, and its sibling is still reaped. *)
let test_pool_worker_dies () =
  let die_at_2 (c : Config.t) =
    if c.Config.seed = contract_points.(2).Spec.point_seed then
      Unix.kill (Unix.getpid ()) Sys.sigkill;
    c
  in
  Alcotest.check_raises "the dead worker's point is named"
    (Failure
       ("sweep point "
       ^ Sweep.point_label contract_points.(2)
       ^ ": worker exited before reporting"))
    (fun () -> ignore (Sweep.run ~jobs:2 ~cfg_tweak:die_at_2 contract_spec));
  check_no_child ()

let test_pool_progress_raises () =
  Alcotest.check_raises "progress's exception passes through" Exit (fun () ->
      ignore
        (Sweep.run ~jobs:2 ~progress:(fun _ _ -> raise Exit) contract_spec));
  check_no_child ()

(* The sequential backend keeps dead testbeds from piling up at the
   collector's whim: each point's App.t, which its testbed holds, is
   collected before the next point starts. *)
let test_sequential_releases_testbeds () =
  let apps = Weak.create (Array.length contract_points) in
  let started = ref 0 and held = ref [] in
  let track make () =
    let i = !started in
    if i >= 1 && Weak.check apps (i - 1) then held := (i - 1) :: !held;
    incr started;
    let app = make () in
    Weak.set apps i (Some app);
    app
  in
  let spec =
    {
      contract_spec with
      Spec.apps =
        List.map (fun (name, make) -> (name, track make)) contract_spec.Spec.apps;
    }
  in
  ignore (Sweep.run ~jobs:1 spec);
  check Alcotest.int "points started" (Array.length contract_points) !started;
  check
    Alcotest.(list int)
    "points whose App.t outlived the start of the next point" []
    (List.rev !held)

(* --- shared dataset images ----------------------------------------------- *)

(* Every registry app, plus a memcached whose SETs write into the image
   its block shares, at two systems each: the second point of every
   block runs on the image the first one used, and the sweep switches
   images seven times. A faiss request costs about 5 ms of host time,
   which sets the request count. *)
let image_spec =
  {
    (Spec.make ~name:"images" ~systems:[ Config.Adios; Config.Dilos ]
       ~loads:[ 150. ] ~requests:150 ())
    with
    Spec.apps =
      List.map
        (fun name -> (name, Option.get (Adios_apps.Registry.find name)))
        Adios_apps.Registry.names
      @ [
          ( "memcached-set",
            fun () -> Adios_apps.Memcached.app ~set_fraction:0.3 () );
        ];
  }

let image_csv run = Dataset.to_csv (Dataset.of_run run)

(* The reference: the same points one at a time, each on a dataset of
   its own. The full major before each point keeps one dead silo arena
   (380 MiB) at most alive. *)
let fresh_images =
  lazy
    (image_csv
       (List.map
          (fun p ->
            Gc.full_major ();
            (p, Sweep.run_point image_spec p))
          (Spec.points image_spec)))

let test_images_sequential () =
  check Alcotest.string "shared images give the fresh builds' dataset"
    (Lazy.force fresh_images)
    (image_csv (Sweep.run ~jobs:1 image_spec))

(* Factory calls in this process are the coordinator's: each worker
   makes its own App.t after the fork. Like every fork test here, it
   runs before any test spawns a domain; the domains run is in the
   domains group below. *)
let test_images_fork () =
  let calls = ref 0 in
  let counted =
    {
      image_spec with
      Spec.apps =
        List.map
          (fun (name, make) ->
            ( name,
              fun () ->
                incr calls;
                make () ))
          image_spec.Spec.apps;
    }
  in
  let run = Sweep.run ~jobs:2 counted in
  check Alcotest.string "inherited images give the fresh builds' dataset"
    (Lazy.force fresh_images) (image_csv run);
  check Alcotest.int "one coordinator factory call per app block"
    (List.length image_spec.Spec.apps)
    !calls

(* Above, each fork worker runs one point per block. Here a block of
   three silo points runs on two workers, so one of them runs two points
   on its image and must roll the first one's writes back. *)
let test_images_fork_rollback () =
  let spec =
    Spec.make ~name:"rollback" ~apps:[ "silo" ] ~systems:[ Config.Adios ]
      ~loads:[ 150.; 300.; 450. ] ~requests:150 ()
  in
  check Alcotest.string "a worker's second point sees the pristine image"
    (image_csv
       (List.map
          (fun p ->
            Gc.full_major ();
            (p, Sweep.run_point spec p))
          (Spec.points spec)))
    (image_csv (Sweep.run ~jobs:2 spec))

let test_images_domains () =
  check Alcotest.string "per-domain images give the fresh builds' dataset"
    (Lazy.force fresh_images)
    (image_csv (Sweep.run ~jobs:2 ~mode:`Domains image_spec))

(* --- spec--------------------------------------------------------------- *)

let test_point_seeds () =
  let points = Spec.points Spec.reduced_array in
  check Alcotest.int "point count"
    (Spec.point_count Spec.reduced_array)
    (List.length points);
  List.iteri
    (fun i (p : Spec.point) ->
      check Alcotest.int "indices are positional" i p.Spec.index;
      check Alcotest.int "seed is a pure function of (seed, index)"
        (Spec.point_seed ~seed:Spec.reduced_array.Spec.seed ~index:i)
        p.Spec.point_seed)
    points;
  let seeds = List.map (fun (p : Spec.point) -> p.Spec.point_seed) points in
  check Alcotest.int "per-point seeds are distinct"
    (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

let test_unknown_app_rejected () =
  Alcotest.check_raises "unknown app"
    (Invalid_argument
       ("Spec.make: " ^ Adios_apps.Registry.unknown "nope"))
    (fun () -> ignore (Spec.make ~apps:[ "nope" ] ~name:"x" ()))

(* --- the variant axis ---------------------------------------------------- *)

let sync_tx c = { c with Config.tx_mode = Config.Tx_sync_spin }

let test_variant_order () =
  let spec =
    Spec.make ~name:"axes" ~apps:[ "array"; "memcached" ]
      ~systems:[ Config.Adios; Config.Hermit ]
      ~variants:[ Spec.default_variant; ("sync-tx", sync_tx) ]
      ~clusters:[ Cluster.default; { Cluster.default with Cluster.nodes = 2 } ]
      ~loads:[ 200.; 600. ] ()
  in
  let key app system variant nodes load =
    Printf.sprintf "%s/%s/%s/%d/%.0f" app system variant nodes load
  in
  let expected =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun system ->
            List.concat_map
              (fun variant ->
                List.concat_map
                  (fun nodes ->
                    List.map (key app system variant nodes) [ 200.; 600. ])
                  [ 1; 2 ])
              [ "default"; "sync-tx" ])
          [ "Adios"; "Hermit" ])
      [ "array"; "memcached" ]
  in
  let points = Spec.points spec in
  check Alcotest.int "point count" (List.length expected)
    (Spec.point_count spec);
  check
    Alcotest.(list string)
    "app, then system, variant, cluster, load" expected
    (List.map
       (fun (p : Spec.point) ->
         key p.Spec.app_name
           (Config.system_name p.Spec.system)
           (fst p.Spec.variant) p.Spec.cluster.Cluster.nodes p.Spec.load)
       points);
  List.iteri
    (fun i (p : Spec.point) ->
      check Alcotest.int "seed is a pure function of (seed, index)"
        (Spec.point_seed ~seed:spec.Spec.seed ~index:i)
        p.Spec.point_seed)
    points

(* A variant rewrites the system default; the point's seed and cluster
   go on after it. *)
let test_variant_before_seed () =
  let crashing = { Cluster.default with Cluster.nodes = 2; crashes = 1 } in
  let meddle c =
    { c with Config.seed = 7; cluster = crashing; workers = 3 }
  in
  let spec = Spec.make ~name:"meddle" ~variants:[ ("meddle", meddle) ] () in
  List.iter
    (fun (p : Spec.point) ->
      let cfg = Spec.config p in
      check Alcotest.int "the point's seed" p.Spec.point_seed cfg.Config.seed;
      check Alcotest.bool "the point's cluster" true
        (cfg.Config.cluster = p.Spec.cluster);
      check Alcotest.int "the variant's setting" 3 cfg.Config.workers)
    (Spec.points spec)

let test_timeout_arming () =
  let crash_rows =
    List.filter
      (fun (p : Spec.point) ->
        let armed =
          (Spec.config p).Config.fetch_timeout = Clock.of_us 50.
        in
        check Alcotest.bool
          (Sweep.point_label p ^ ": armed iff the cluster crashes")
          (p.Spec.cluster.Cluster.crashes > 0)
          armed;
        armed)
      (Spec.points Spec.cluster_reduced)
  in
  check Alcotest.int "cluster-reduced's crash rows" 4 (List.length crash_rows);
  let faulty c =
    let module Injector = Adios_fault.Injector in
    { c with Config.fault = { Injector.none with Injector.drop = 0.01 } }
  in
  check
    Alcotest.(list int)
    "clean fabric, a variant's faulty fabric" [ 0; Clock.of_us 50. ]
    (List.map
       (fun p -> (Spec.config p).Config.fetch_timeout)
       (Spec.points
          (Spec.make ~name:"faulty" ~systems:[ Config.Adios ]
             ~variants:[ Spec.default_variant; ("faulty", faulty) ]
             ())))

let test_label_names_variant () =
  let spec =
    Spec.make ~name:"labels" ~systems:[ Config.Adios ]
      ~variants:[ Spec.default_variant; ("sync-tx", sync_tx) ]
      ~loads:[ 600. ] ()
  in
  check
    Alcotest.(list string)
    "only a non-default variant is named"
    [
      Printf.sprintf "Adios/array @ 600 krps (seed %d)"
        (Spec.point_seed ~seed:42 ~index:0);
      Printf.sprintf "Adios/array [sync-tx] @ 600 krps (seed %d)"
        (Spec.point_seed ~seed:42 ~index:1);
    ]
    (List.map Sweep.point_label (Spec.points spec))

(* Forks, so its group runs before any test spawns a domain. The seed
   is pinned on every point, as the bench harness pins it, so that
   only the variant tells two points at one (system, load) apart. *)
let test_variants_fork () =
  let spec =
    Spec.make ~name:"variants" ~systems:[ Config.Adios; Config.Dilos ]
      ~variants:[ Spec.default_variant; ("sync-tx", sync_tx) ]
      ~loads:[ 600.; 1200. ] ~requests:300 ()
  in
  let run jobs =
    Dataset.of_run
      (Sweep.run ~jobs ~cfg_tweak:(fun c -> { c with Config.seed = 1 }) spec)
  in
  let ds = run 1 in
  check Alcotest.string "same bytes (jobs=1 vs fork jobs=2)"
    (Dataset.to_csv ds)
    (Dataset.to_csv (run 2));
  (* each (system, load) pair runs once per variant, two rows apart:
     past the point columns (load, seed), the sync-TX rows must differ
     from the default ones *)
  let measured i =
    List.filteri
      (fun j _ -> j >= List.length Dataset.point_columns)
      (List.nth ds.Dataset.rows i)
  in
  List.iter
    (fun i ->
      check Alcotest.bool "the variant changes the run" false
        (measured i = measured (i + 2)))
    [ 0; 1; 4; 5 ]

let test_steal_workers () =
  List.iter
    (fun (p : Spec.point) ->
      check Alcotest.int
        (Sweep.point_label p ^ " workers")
        16 (Spec.config p).Config.workers)
    (Spec.points Spec.steal_reduced)

(* --- oracles on synthetic data ------------------------------------------ *)

(* A minimal dataset with just the columns a given oracle reads. *)
let synth header rows = { Dataset.header; rows }

let latency_header = [ "load"; "system"; "app"; "p999_us"; "achieved_krps" ]

let curve_rows sys rows =
  List.map
    (fun (load, p999, thr) ->
      [ string_of_float load; sys; "array"; string_of_float p999;
        string_of_float thr ])
    rows

let test_knee_synthetic () =
  let ds =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.); (200., 25., 180.); (300., 35., 250.) ])
  in
  check
    Alcotest.(option (float 1e-9))
    "first point past 3x baseline" (Some 300.)
    (Oracle.knee ds ~system:"A" ~app:"array");
  check
    Alcotest.(option (float 1e-9))
    "k=2 knees earlier" (Some 200.)
    (Oracle.knee ~k:2. ds ~system:"A" ~app:"array");
  let flat =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.); (200., 11., 180.); (300., 12., 250.) ])
  in
  check
    Alcotest.(option (float 1e-9))
    "flat curve never knees" None
    (Oracle.knee flat ~system:"A" ~app:"array");
  check Alcotest.int "missing knee reported" 1
    (List.length (Oracle.check_knees_detected flat ~app:"array"))

let test_ranking_synthetic () =
  let ds =
    synth latency_header
      (curve_rows "Adios" [ (100., 10., 90.); (200., 40., 170.) ]
      @ curve_rows "Base" [ (100., 10., 90.); (300., 40., 250.) ])
  in
  (* Adios knees at 200, Base survives to 300: the headline inverted *)
  check Alcotest.int "inverted ranking caught" 1
    (List.length (Oracle.check_ranking ds ~app:"array"));
  let ok =
    synth latency_header
      (curve_rows "Adios" [ (100., 10., 90.); (300., 40., 250.) ]
      @ curve_rows "Base" [ (100., 10., 90.); (300., 40., 250.) ])
  in
  no_violations "tie is acceptable" (Oracle.check_ranking ok ~app:"array")

let test_monotone_synthetic () =
  let collapsing =
    synth latency_header
      (curve_rows "A"
         [ (100., 10., 100.); (200., 12., 200.); (300., 14., 90.) ])
  in
  check Alcotest.int "collapse caught" 1
    (List.length (Oracle.check_throughput_monotone collapsing));
  no_violations "sag within slack passes"
    (Oracle.check_throughput_monotone
       (synth latency_header
          (curve_rows "A"
             [ (100., 10., 100.); (200., 12., 200.); (300., 14., 170.) ])))

let conservation_header =
  [
    "load"; "system"; "app"; "requests"; "completed"; "dropped"; "drops_queue";
    "drops_buffer"; "handled"; "errored"; "admitted"; "prefetch_issued";
    "prefetch_useful"; "prefetch_wasted";
  ]

let conservation_row ~requests ~completed ~dropped =
  [
    "100."; "A"; "array";
    string_of_int requests; string_of_int completed; string_of_int dropped;
    string_of_int dropped; "0"; string_of_int completed; "0";
    string_of_int completed; "4"; "2"; "1";
  ]

let test_conservation_synthetic () =
  no_violations "balanced row passes"
    (Oracle.check_conservation
       (synth conservation_header
          [ conservation_row ~requests:100 ~completed:90 ~dropped:10 ]));
  check Alcotest.int "lost request caught" 1
    (List.length
       (Oracle.check_conservation
          (synth conservation_header
             [ conservation_row ~requests:100 ~completed:90 ~dropped:5 ])))

let test_compare_golden_exact () =
  let mk p999 =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.); (200., p999, 180.) ])
  in
  let golden = mk 25. in
  no_violations "identical matches" (Oracle.compare_golden ~golden (mk 25.));
  (* no drift is tolerated: the smallest change is reported, by row and
     column *)
  check
    Alcotest.(list string)
    "one changed cell"
    [ {|row 2, column p999_us: "25.1", golden "25."|} ]
    (Oracle.compare_golden ~golden (mk 25.1));
  check
    Alcotest.(list string)
    "row count change"
    [ "row count changed: golden 2, got 1" ]
    (Oracle.compare_golden ~golden
       (synth latency_header (curve_rows "A" [ (100., 10., 90.) ])));
  check Alcotest.int "header change" 1
    (List.length
       (Oracle.compare_golden ~golden
          { (mk 25.) with Dataset.header = List.rev latency_header }))

let cluster_header =
  [
    "load"; "system"; "app"; "nodes"; "replication"; "crashes";
    "nodes_failed"; "failovers"; "errored"; "p999_us";
  ]

let cluster_row ?(nodes_failed = 0) ?(failovers = 0) ?(errored = 0)
    ~replication ~crashes ~p999 () =
  [
    "1000."; "Adios"; "array"; "2"; string_of_int replication;
    string_of_int crashes; string_of_int nodes_failed;
    string_of_int failovers; string_of_int errored; string_of_float p999;
  ]

let test_failover_synthetic () =
  let grid ?(r2_crash = cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                          ~failovers:40 ~p999:11. ())
      ?(r1_crash = cluster_row ~replication:1 ~crashes:1 ~nodes_failed:1
                     ~errored:50 ~p999:60. ()) () =
    synth cluster_header
      [
        cluster_row ~replication:1 ~crashes:0 ~p999:9. ();
        r1_crash;
        cluster_row ~replication:2 ~crashes:0 ~p999:10. ();
        r2_crash;
      ]
  in
  no_violations "the expected split passes" (Oracle.check_failover (grid ()));
  let fails label ds = check Alcotest.bool label true (Oracle.check_failover ds <> []) in
  fails "R=2 errors caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~failovers:40 ~errored:5 ~p999:11. ()) ());
  fails "missing failovers caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~p999:11. ()) ());
  fails "unbounded tail caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~failovers:40 ~p999:200. ()) ());
  fails "unfired crash caught"
    (grid ~r1_crash:(cluster_row ~replication:1 ~crashes:1 ~errored:50
                       ~p999:60. ()) ());
  fails "silently-served R=1 crash caught"
    (grid ~r1_crash:(cluster_row ~replication:1 ~crashes:1 ~nodes_failed:1
                       ~p999:9. ()) ())

let test_replication_tail_synthetic () =
  let grid r2_p999 =
    synth cluster_header
      [
        cluster_row ~replication:1 ~crashes:0 ~p999:9. ();
        cluster_row ~replication:2 ~crashes:0 ~p999:r2_p999 ();
      ]
  in
  no_violations "modest replication overhead passes"
    (Oracle.check_replication_tail (grid 12.));
  check Alcotest.int "poisoned tail caught" 1
    (List.length (Oracle.check_replication_tail (grid 40.)))

let test_dataset_accessors () =
  let ds =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.) ] @ curve_rows "B" [ (100., 20., 80.) ])
  in
  check Alcotest.(list string) "systems" [ "A"; "B" ] (Dataset.systems ds);
  check Alcotest.(list string) "apps" [ "array" ] (Dataset.apps ds);
  check Alcotest.int "filter" 1
    (Dataset.length (Dataset.filter ds ~name:"system" ~value:"B"));
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Dataset.get: no column nope")
    (fun () ->
      ignore (Dataset.get ds (List.hd ds.Dataset.rows) "nope"))

let () =
  Alcotest.run "sweep"
    [
      ( "golden",
        [
          Alcotest.test_case "replay bit-identical" `Quick
            test_replay_bit_identical;
          Alcotest.test_case "matches checked-in golden" `Quick
            test_golden_match;
          Alcotest.test_case "knees detected" `Quick test_knees_detected;
          Alcotest.test_case "Adios outlasts baselines" `Quick
            test_adios_outlasts_baselines;
          Alcotest.test_case "throughput monotone" `Quick
            test_throughput_monotone;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "matches tail-forensics golden" `Quick
            test_phase_golden_match;
          Alcotest.test_case "phase oracles" `Quick test_phase_oracles;
          Alcotest.test_case "csv round-trip" `Quick test_csv_round_trip;
        ] );
      ( "cluster golden",
        [
          Alcotest.test_case "replay bit-identical" `Quick
            test_cluster_replay_bit_identical;
          Alcotest.test_case "matches checked-in golden" `Quick
            test_cluster_golden_match;
          Alcotest.test_case "failover split holds" `Quick
            test_cluster_oracles;
        ] );
      ( "steal golden",
        [
          Alcotest.test_case "matches checked-in golden" `Quick
            test_steal_golden_match;
          Alcotest.test_case "dispatch split holds" `Quick test_steal_oracles;
        ] );
      ( "units",
        [ Alcotest.test_case "sim_events gate" `Quick test_sim_events_gate ] );
      ( "determinism",
        [
          pinned "array" Spec.reduced_array ~jobs:1;
          pinned "array" Spec.reduced_array ~jobs:2;
          pinned "memcached" Spec.reduced_memcached ~jobs:1;
          pinned "rocksdb" Spec.reduced_rocksdb_scan ~jobs:1;
          pinned "cluster" Spec.cluster_reduced ~jobs:1;
          pinned "cluster" Spec.cluster_reduced ~jobs:2;
          pinned "steal" Spec.steal_reduced ~jobs:1;
        ] );
      ( "images",
        [
          Alcotest.test_case "sequential matches fresh builds" `Quick
            test_images_sequential;
          Alcotest.test_case "fork matches fresh builds" `Quick
            test_images_fork;
          Alcotest.test_case "fork workers roll back" `Quick
            test_images_fork_rollback;
        ] );
      ( "variants",
        [
          Alcotest.test_case "point order" `Quick test_variant_order;
          Alcotest.test_case "variant before seed and cluster" `Quick
            test_variant_before_seed;
          Alcotest.test_case "fetch timeout arming" `Quick test_timeout_arming;
          Alcotest.test_case "label names the variant" `Quick
            test_label_names_variant;
          Alcotest.test_case "csv equal at jobs 1 and 2" `Quick
            test_variants_fork;
          Alcotest.test_case "steal-reduced runs 16 workers" `Quick
            test_steal_workers;
        ] );
      ( "backends",
        [
          Alcotest.test_case "a block runs on at most jobs workers" `Quick
            test_pool_processes;
          Alcotest.test_case "a dead worker fails its point" `Quick
            test_pool_worker_dies;
          Alcotest.test_case "raising progress leaves no worker" `Quick
            test_pool_progress_raises;
          Alcotest.test_case "lowest failing point named" `Quick
            test_contract_failure;
          Alcotest.test_case "progress in points order" `Quick
            test_contract_progress;
          Alcotest.test_case "sequential releases testbeds" `Quick
            test_sequential_releases_testbeds;
        ] );
      ( "domains backend",
        [
          Alcotest.test_case "every spec bit-identical" `Quick
            test_domains_bit_identical;
          Alcotest.test_case "metrics bit-identical" `Quick
            test_domains_metrics_identical;
          Alcotest.test_case "sim_events pinned" `Quick
            test_sim_events_pinned;
          Alcotest.test_case "images match fresh builds" `Quick
            test_images_domains;
        ] );
      ( "spec",
        [
          Alcotest.test_case "point seeds" `Quick test_point_seeds;
          Alcotest.test_case "unknown app rejected" `Quick
            test_unknown_app_rejected;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "knee" `Quick test_knee_synthetic;
          Alcotest.test_case "ranking" `Quick test_ranking_synthetic;
          Alcotest.test_case "monotonicity" `Quick test_monotone_synthetic;
          Alcotest.test_case "conservation" `Quick
            test_conservation_synthetic;
          Alcotest.test_case "golden exact" `Quick test_compare_golden_exact;
          Alcotest.test_case "failover" `Quick test_failover_synthetic;
          Alcotest.test_case "replication tail" `Quick
            test_replication_tail_synthetic;
          Alcotest.test_case "dataset accessors" `Quick
            test_dataset_accessors;
        ] );
    ]
