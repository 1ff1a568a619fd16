(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections 2 and 5). Output is plain rows so EXPERIMENTS.md
   can quote it verbatim.

   Environment knobs:
     ADIOS_BENCH_SCALE   float multiplier on request counts (default 1.0;
                         use 0.2 for a quick pass)
     ADIOS_BENCH_ONLY    comma-separated experiment ids to run
                         (e.g. "fig7,fig10"); default: everything
     ADIOS_BENCH_SEED    integer seed threaded into every simulator RNG
                         (default 42); the same seed replays the same run
                         bit-for-bit
     ADIOS_BENCH_JOBS    worker processes per sweep (default 1); results
                         are identical at any job count

   Every experiment that simulates is one Spec swept through [run]:
   an experiment's knob (local memory, TX mode, dispatch policy, ...)
   is the spec's variant axis, and its rows are printed from the
   results.

   A malformed value or an unknown experiment id exits with status 2
   before anything runs. *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Report = Adios_core.Report
module Params = Adios_core.Params
module Spec = Adios_exp.Spec
module Summary = Adios_stats.Summary
module Clock = Adios_engine.Clock
module Context = Adios_unithread.Context
module Buffer_pool = Adios_unithread.Buffer_pool

let pf = Printf.printf

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let knob name ~default ~expect parse ok =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match parse (String.trim s) with
    | Some v when ok v -> v
    | Some _ | None -> usage_error "%s must be %s, got %S" name expect s)

let scale =
  knob "ADIOS_BENCH_SCALE" ~default:1.0 ~expect:"a positive number"
    float_of_string_opt (fun f -> f > 0. && Float.is_finite f)

let only =
  match Sys.getenv_opt "ADIOS_BENCH_ONLY" with
  | None | Some "" -> []
  | Some s -> String.split_on_char ',' s |> List.map String.trim

let want id = only = [] || List.mem id only
let reqs n = max 2_000 (int_of_float (float_of_int n *. scale))

let bench_seed =
  knob "ADIOS_BENCH_SEED" ~default:42 ~expect:"an integer" int_of_string_opt
    (fun _ -> true)

let jobs =
  knob "ADIOS_BENCH_JOBS" ~default:1 ~expect:"a positive integer"
    int_of_string_opt (fun j -> j >= 1)

(* An experiment's spec: [requests] is the full-scale count per point,
   scaled by ADIOS_BENCH_SCALE. *)
let spec ?systems ?variants ~apps ~loads ~requests name =
  Spec.make ~name ?systems ~apps ?variants ~loads ~requests:(reqs requests)
    ~seed:bench_seed ()

(* Run one experiment's spec: its points fan out over ADIOS_BENCH_JOBS
   worker processes. The harness seed is pinned onto every point (one
   seed per run, not per point, as the harness has always seeded), so
   ADIOS_BENCH_SEED replays every experiment bit for bit, at any job
   count. [profile] attaches the phase profiler, which changes no
   measurement. *)
let run ?profile spec =
  Adios_exp.Sweep.run ~jobs ?profile
    ~cfg_tweak:(fun c -> { c with Config.seed = bench_seed })
    ~progress:(fun _ r -> Report.result_line r)
    spec

(* The results grouped by [key], in first-appearance order: a figure's
   series, each in ascending load. *)
let series key results =
  let keys =
    List.fold_left
      (fun ks (p, _) -> if List.mem (key p) ks then ks else ks @ [ key p ])
      [] results
  in
  List.map
    (fun k ->
      ( k,
        List.filter_map
          (fun (p, r) -> if key p = k then Some r else None)
          results ))
    keys

let by_system (p : Spec.point) = Config.system_name p.Spec.system
let by_variant (p : Spec.point) = fst p.Spec.variant

(* A variant for each setting of one knob, named by [name]. *)
let variants name set values =
  List.map (fun v -> (name v, fun c -> set c v)) values

let all_systems = [ Config.Hermit; Config.Dilos; Config.Dilos_p; Config.Adios ]

let nearest_load results target =
  List.fold_left
    (fun best (r : Runner.result) ->
      match best with
      | None -> Some r
      | Some b ->
        if
          abs_float (r.Runner.offered_krps -. target)
          < abs_float (b.Runner.offered_krps -. target)
        then Some r
        else Some b)
    None results

(* ---- Table 1: context switching ------------------------------------- *)

let bechamel_ctx_switch () =
  let open Bechamel in
  let test kind name =
    Test.make ~name (Staged.stage (Context.make_pingpong kind))
  in
  let tests =
    Test.make_grouped ~name:"ctx-switch"
      [ test Context.Unithread "unithread"; test Context.Ucontext "ucontext" ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) ->
        pf "%-28s %8.1f ns/switch (host machine, real effects)\n" name ns
      | _ -> pf "%-28s (no estimate)\n" name)
    results

let table1 () =
  Report.header "Table 1: context-switching mechanisms";
  pf "%-28s %14s %14s\n" "mechanism" "context size" "cycles (model)";
  List.iter
    (fun kind ->
      pf "%-28s %13dB %14d\n"
        (Format.asprintf "%a" Context.pp_kind kind)
        (Context.context_bytes kind)
        (Context.switch_cycles kind))
    [ Context.Unithread; Context.Ucontext ];
  pf "\nhost-measured coroutine ping-pong (Bechamel, OLS):\n";
  bechamel_ctx_switch ()

(* ---- Table 2: workload summary ---------------------------------------- *)

let table2 () =
  Report.header "Table 2: real-world workloads";
  pf "%-16s %-10s %-12s %-12s\n" "application" "type" "workload" "arena";
  let mb app =
    Printf.sprintf "%dMB" (app.Adios_core.App.pages * 4096 / 1024 / 1024)
  in
  let rows =
    [
      (Adios_apps.Memcached.app (), "KVS", "GET");
      (Adios_apps.Rocksdb.app (), "KVS", "GET/SCAN");
      (Adios_apps.Silo.app (), "OLTP", "TPC-C");
      (Adios_apps.Faiss.app (), "VectorDB", "BIGANN-like");
    ]
  in
  List.iter
    (fun (app, typ, wl) ->
      pf "%-16s %-10s %-12s %-12s\n" app.Adios_core.App.name typ wl (mb app))
    rows

(* ---- microbenchmark sweeps (Figs. 2 and 7) ----------------------------- *)

let micro_loads = [ 200.; 600.; 1000.; 1300.; 1450.; 1600.; 2000.; 2400.; 2700. ]

let micro_sweep =
  lazy
    (pf "\n[running microbenchmark sweep: 4 systems x %d load points]\n"
       (List.length micro_loads);
     (* profiled for the per-band phase tables of figs. 2(c) and 7(c) *)
     run ~profile:true
       (spec "micro" ~systems:all_systems ~apps:[ "array" ] ~loads:micro_loads
          ~requests:60_000)
     |> series by_system)

let get_series name =
  match List.assoc_opt name (Lazy.force micro_sweep) with
  | Some rs -> rs
  | None -> []

let fig2 () =
  Report.header "Figure 2: performance analysis of DiLOS (busy-waiting)";
  let dilos = get_series "DiLOS" and dilos_p = get_series "DiLOS-P" in
  Report.load_table ~title:"fig2(a) P99 e2e latency vs load"
    (Report.latency Report.p99)
    [ ("DiLOS", dilos); ("DiLOS-P", dilos_p) ];
  (match nearest_load dilos 1300. with
  | Some r ->
    Report.cdf ~title:"fig2(b) DiLOS latency CDF @ ~1.3 MRPS" r;
    Report.phase_bands
      ~title:"fig2(c) DiLOS request phases per latency band @ ~1.3 MRPS" r;
    Report.cpu_efficiency
      ~title:"fig2(c) DiLOS worker cycles @ ~1.3 MRPS"
      [ ("DiLOS", r) ]
  | None -> ());
  Report.load_table ~title:"fig2(d) DiLOS throughput vs offered load"
    Report.achieved [ ("DiLOS", dilos) ];
  Report.load_table ~title:"fig2(e) DiLOS RDMA link utilization"
    Report.rdma_util [ ("DiLOS", dilos) ]

let fig7 () =
  Report.header "Figure 7: Hermit vs DiLOS vs DiLOS-P vs Adios (microbench)";
  let series = Lazy.force micro_sweep in
  Report.load_table ~title:"fig7(a) P99.9 latency vs throughput"
    (Report.latency Report.p999) series;
  Report.load_table ~title:"fig7(b) P50 latency vs throughput"
    (Report.latency Report.p50) series;
  (match nearest_load (get_series "Adios") 1300. with
  | Some r ->
    Report.phase_bands
      ~title:"fig7(c) Adios request phases per latency band @ ~1.3 MRPS" r
  | None -> ());
  let dilos_adios =
    [ ("DiLOS", get_series "DiLOS"); ("Adios", get_series "Adios") ]
  in
  Report.load_table ~title:"fig7(d) throughput: DiLOS vs Adios"
    Report.achieved dilos_adios;
  Report.load_table ~title:"fig7(e) RDMA utilization: DiLOS vs Adios"
    Report.rdma_util dilos_adios;
  Report.summary_speedups ~baseline:"DiLOS" series;
  pf "(raw rows: bin/adios_sweep exports this sweep as CSV; see \
      EXPERIMENTS.md)\n"

let fig8 () =
  Report.header "Figure 8: sensitivity to local DRAM size (array microbench)";
  let series =
    run
      (spec "fig8" ~systems:[ Config.Dilos; Config.Adios ] ~apps:[ "array" ]
         ~variants:
           (variants
              (fun ratio -> Printf.sprintf "local=%3.0f%%" (100. *. ratio))
              (fun c local_ratio -> { c with Config.local_ratio })
              [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ])
         ~loads:[ 1000.; 1500.; 2000.; 2500.; 3000. ]
         ~requests:30_000)
    |> series (fun p -> Printf.sprintf "%-8s %s" (by_system p) (by_variant p))
  in
  List.iter2
    (fun (name, rs) (_, peak) ->
      let p99_at_1500 =
        match nearest_load rs 1500. with
        | Some r -> Clock.to_us r.Runner.e2e.Summary.p99
        | None -> 0.
      in
      pf "%s  peak=%7.0f krps  P99@1.5M=%8.2f us\n" name peak p99_at_1500)
    series
    (Report.peak_throughput series)

let fig9 () =
  Report.header "Figure 9: effect of polling delegation (Adios)";
  let series =
    run
      (spec "fig9" ~systems:[ Config.Adios ] ~apps:[ "array" ]
         ~variants:
           [
             ("Delegation", Fun.id);
             ( "Sync-TX",
               fun c -> { c with Config.tx_mode = Config.Tx_sync_spin } );
           ]
         ~loads:[ 1200.; 1700.; 2100.; 2400.; 2600. ]
         ~requests:40_000)
    |> series by_variant
  in
  Report.load_table ~title:"fig9 P50" (Report.latency Report.p50) series;
  Report.load_table ~title:"fig9 P99.9" (Report.latency Report.p999) series;
  let peaks = Report.peak_throughput series in
  List.iter (fun (n, p) -> pf "%-12s peak %7.0f krps\n" n p) peaks

(* ---- real-world applications ------------------------------------------- *)

let app_figure ~id ~title ~app ~loads ~requests ~kinds () =
  Report.header title;
  let series =
    run (spec id ~systems:all_systems ~apps:[ app ] ~loads ~requests)
    |> series by_system
  in
  List.iter
    (fun kind ->
      Report.load_table
        ~title:(Printf.sprintf "%s %s P50 (us)" id kind)
        (Report.latency ~kind Report.p50) series;
      Report.load_table
        ~title:(Printf.sprintf "%s %s P99.9 (us)" id kind)
        (Report.latency ~kind Report.p999) series)
    kinds;
  Report.load_table ~title:(id ^ " throughput") Report.achieved series;
  Report.summary_speedups ~baseline:"DiLOS" series

let dispatch_figure ~id ~app ~loads ~requests ~kind () =
  Report.header (id ^ ": PF-aware vs round-robin dispatching (Adios)");
  let series =
    run
      (spec id ~systems:[ Config.Adios ] ~apps:[ app ]
         ~variants:
           [
             ("PF-Aware", Fun.id);
             ("RR", fun c -> { c with Config.dispatch = Config.Round_robin });
           ]
         ~loads ~requests)
    |> series by_variant
  in
  Report.load_table ~title:(id ^ " P99.9 (us)")
    (Report.latency ~kind Report.p999) series

let memcached_loads = [ 300.; 600.; 800.; 900.; 1000.; 1100. ]

let fig10 () =
  app_figure ~id:"fig10(a,b)"
    ~title:"Figure 10(a,b): Memcached GET, 128B values" ~app:"memcached"
    ~loads:memcached_loads ~requests:40_000 ~kinds:[ "GET" ] ();
  app_figure ~id:"fig10(c,d)"
    ~title:"Figure 10(c,d): Memcached GET, 1024B values" ~app:"memcached-1024"
    ~loads:memcached_loads ~requests:40_000 ~kinds:[ "GET" ] ()

let fig10e () =
  dispatch_figure ~id:"fig10(e)" ~app:"memcached" ~loads:memcached_loads
    ~requests:40_000 ~kind:"GET" ()

let rocksdb_loads = [ 300.; 500.; 700.; 850.; 1000.; 1150.; 1300. ]

let fig11 () =
  app_figure ~id:"fig11"
    ~title:"Figure 11: RocksDB 99% GET / 1% SCAN(100), 1024B values"
    ~app:"rocksdb" ~loads:rocksdb_loads ~requests:30_000
    ~kinds:[ "GET"; "SCAN" ] ()

let fig11e () =
  dispatch_figure ~id:"fig11(e)" ~app:"rocksdb" ~loads:rocksdb_loads
    ~requests:30_000 ~kind:"GET" ()

let fig12 () =
  app_figure ~id:"fig12" ~title:"Figure 12: Silo TPC-C" ~app:"silo"
    ~loads:[ 150.; 300.; 450.; 600.; 750. ]
    ~requests:20_000 ~kinds:[ "NO"; "PAY"; "SL" ] ()

let fig13 () =
  app_figure ~id:"fig13" ~title:"Figure 13: Faiss IVF-Flat (BIGANN-like)"
    ~app:"faiss" ~loads:[ 4.; 8.; 12.; 16.; 20. ] ~requests:2_500
    ~kinds:[ "QUERY" ] ()

(* ---- ablations ----------------------------------------------------------- *)

let ablate_reclaimer () =
  Report.header
    "Ablation A1: proactive (pinned) vs wakeup reclaimer (section 3.3)";
  (* small local cache and a sluggish wakeup: allocation can outrun
     reclamation, producing out-of-memory stalls in the fault path *)
  let pressured =
    {
      Adios_mem.Reclaimer.low_watermark = 0.02;
      high_watermark = 0.03;
      wakeup_delay = Clock.of_us 15.;
    }
  in
  run
    (spec "ablate-reclaimer" ~systems:[ Config.Adios ] ~apps:[ "array" ]
       ~variants:
         (variants
            (function
              | Adios_mem.Reclaimer.Proactive -> "proactive"
              | Adios_mem.Reclaimer.Wakeup -> "wakeup")
            (fun c reclaim ->
              {
                c with
                Config.reclaim;
                reclaim_config = pressured;
                local_ratio = 0.05;
              })
            [ Adios_mem.Reclaimer.Proactive; Adios_mem.Reclaimer.Wakeup ])
       ~loads:[ 1500.; 2000.; 2300. ] ~requests:30_000)
  |> List.iter (fun ((p : Spec.point), (r : Runner.result)) ->
         pf
           "%-10s load=%5.0f  p50=%8.2fus  p99.9=%9.2fus  evictions=%d  \
            oom_stalls=%d\n"
           (by_variant p) p.Spec.load
           (Clock.to_us r.Runner.e2e.Summary.p50)
           (Clock.to_us r.Runner.e2e.Summary.p999)
           r.Runner.evictions r.Runner.frame_stalls)

let ablate_stack () =
  Report.header "Ablation A2: universal stack memory footprint (section 3.2)";
  List.iter
    (fun layout ->
      pf "%-34s %6d B/request  pool(131072) = %5d MB\n"
        layout.Buffer_pool.name
        (Buffer_pool.bytes_per_buffer layout)
        (131_072 * Buffer_pool.bytes_per_buffer layout / 1024 / 1024)
    )
    [ Buffer_pool.unithread_layout; Buffer_pool.shinjuku_layout ];
  let saved =
    131_072
    * (Buffer_pool.bytes_per_buffer Buffer_pool.shinjuku_layout
      - Buffer_pool.bytes_per_buffer Buffer_pool.unithread_layout)
  in
  pf "saved %d MB = %.1f%% of the 8 GB local DRAM cache\n"
    (saved / 1024 / 1024)
    (100. *. float_of_int saved /. (8. *. 1024. *. 1024. *. 1024.))

let ablate_prefetch () =
  Report.header
    "Ablation A4: Leap-style stride prefetching (section 2.3 overlap)";
  List.iter
    (fun (app, load) ->
      run
        (spec "ablate-prefetch" ~systems:[ Config.Dilos; Config.Adios ]
           ~apps:[ app ]
           ~variants:
             (variants Config.prefetch_name
                (fun c prefetch -> { c with Config.prefetch })
                [ Config.No_prefetch; Config.Stride 8 ])
           ~loads:[ load ] ~requests:25_000)
      |> List.iter (fun ((p : Spec.point), (r : Runner.result)) ->
             let issued, useful, wasted = r.Runner.prefetches in
             let scan =
               match List.assoc_opt "SCAN" r.Runner.kind_summaries with
               | Some s -> Clock.to_us s.Summary.p50
               | None -> 0.
             in
             pf
               "%-8s %-7s prefetch=%-10s p50=%8.2fus p99.9=%9.2fus \
                scan_p50=%8.2fus issued=%d useful=%d wasted=%d\n"
               p.Spec.app_name (by_system p) (by_variant p)
               (Clock.to_us r.Runner.e2e.Summary.p50)
               (Clock.to_us r.Runner.e2e.Summary.p999)
               scan issued useful wasted))
    [ ("rocksdb", 700.); ("array", 1300.) ]

let ablate_dispatch () =
  Report.header
    "Ablation A5: queueing policy (single queue vs d-FCFS vs stealing, \
     section 3.4)";
  run
    (spec "ablate-dispatch" ~systems:[ Config.Dilos; Config.Adios ]
       ~apps:[ "rocksdb" ]
       ~variants:
         (variants Config.dispatch_name
            (fun c dispatch -> { c with Config.dispatch })
            [ Config.Pf_aware; Config.Round_robin; Config.Work_stealing;
              Config.Partitioned ])
       ~loads:[ 850. ] ~requests:25_000)
  |> List.iter (fun ((p : Spec.point), (r : Runner.result)) ->
         let get = List.assoc "GET" r.Runner.kind_summaries in
         pf "%-8s %-14s GET p50=%8.2fus  GET p99.9=%9.2fus  achieved=%5.0f\n"
           (by_system p) (by_variant p)
           (Clock.to_us get.Summary.p50)
           (Clock.to_us get.Summary.p999)
           r.Runner.achieved_krps)

let ablate_workers () =
  Report.header
    "Ablation A6: single-queue scalability with worker count (section 6)";
  List.iter
    (fun workers ->
      (* drive each configuration well past its per-worker knee: the
         load follows the variant, so each worker count is a spec of
         its own *)
      let load = 350. *. float_of_int workers in
      run
        (spec "ablate-workers" ~systems:[ Config.Adios ] ~apps:[ "array" ]
           ~variants:
             (variants (Printf.sprintf "workers=%d")
                (fun c workers -> { c with Config.workers })
                [ workers ])
           ~loads:[ load ] ~requests:40_000)
      |> List.iter (fun (_, (r : Runner.result)) ->
             pf "workers=%2d offered=%5.0f achieved=%5.0f krps  p99.9=%9.2fus\n"
               workers load r.Runner.achieved_krps
               (Clock.to_us r.Runner.e2e.Summary.p999)))
    [ 2; 4; 8; 12; 16; 24 ]

let ablate_huge_pages () =
  Report.header
    "Ablation A7: 4KB vs 2MB compute-node pages (I/O amplification, \
     section 5.2 Silo)";
  (* the same array working set, but faulted in 2 MB units: each miss
     drags 512x the bytes over the wire *)
  let array label ~page_size ~pages =
    ( label,
      fun () ->
        {
          (Adios_apps.Array_bench.app ~pages ~page_size ()) with
          Adios_core.App.name = label;
        } )
  in
  let results =
    run
      {
        (spec "ablate-huge-pages" ~systems:[ Config.Adios ] ~apps:[]
           ~loads:[ 4.; 100.; 800. ] ~requests:20_000)
        with
        Spec.apps =
          [
            array "4KB" ~page_size:4096 ~pages:16_384;
            array "2MB" ~page_size:(2 * 1024 * 1024) ~pages:32;
          ];
      }
  in
  List.iter
    (fun (label, load) ->
      let _, (r : Runner.result) =
        List.find
          (fun ((p : Spec.point), _) ->
            p.Spec.app_name = label && p.Spec.load = load)
          results
      in
      pf "%-10s load=%5.0f achieved=%5.0f krps  p50=%9.2fus  p99.9=%10.2fus  util=%5.1f%%\n"
        label load r.Runner.achieved_krps
        (Clock.to_us r.Runner.e2e.Summary.p50)
        (Clock.to_us r.Runner.e2e.Summary.p999)
        (100. *. r.Runner.rdma_util))
    [
      ("4KB", 800.);
      ("2MB", 800.);
      ("4KB", 100.);
      ("2MB", 100.);
      (* the highest load 2 MB pages survive at all: the link carries
         512x the useful bytes (the grid's 4KB point there goes
         unprinted) *)
      ("2MB", 4.);
    ]

let ablate_qp_depth () =
  Report.header "Ablation A3: QP depth vs Adios saturation (section 5.2)";
  run
    (spec "ablate-qp-depth" ~systems:[ Config.Adios ] ~apps:[ "array" ]
       ~variants:
         (variants (Printf.sprintf "qp_depth=%d")
            (fun c qp_depth -> { c with Config.qp_depth })
            [ 4; 16; 64; 128; 512 ])
       ~loads:[ 2400. ] ~requests:40_000)
  |> List.iter (fun ((p : Spec.point), (r : Runner.result)) ->
         pf "qp_depth=%4d  achieved=%7.0f krps  p99.9=%9.2f us  qp_stalls=%d\n"
           (Spec.config p).Config.qp_depth r.Runner.achieved_krps
           (Clock.to_us r.Runner.e2e.Summary.p999)
           r.Runner.qp_stalls)

(* ---- main ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig10e", fig10e);
    ("fig11", fig11);
    ("fig11e", fig11e);
    ("fig12", fig12);
    ("fig13", fig13);
    ("ablate-reclaimer", ablate_reclaimer);
    ("ablate-prefetch", ablate_prefetch);
    ("ablate-dispatch", ablate_dispatch);
    ("ablate-workers", ablate_workers);
    ("ablate-huge-pages", ablate_huge_pages);
    ("ablate-stack", ablate_stack);
    ("ablate-qp-depth", ablate_qp_depth);
  ]

let () =
  (match List.filter (fun id -> not (List.mem_assoc id experiments)) only with
  | [] -> ()
  | unknown ->
    usage_error "unknown ADIOS_BENCH_ONLY id %s (valid: %s)"
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " (List.map fst experiments)));
  pf "Adios reproduction benchmark harness (scale=%.2f)\n" scale;
  Format.printf "%a@." Params.pp_table ();
  List.iter
    (fun (id, f) ->
      if want id then begin
        let t0 = Unix.gettimeofday () in
        f ();
        pf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t0)
      end)
    experiments
