(* Fault-injection fabric tests: injector determinism, the NIC's
   lost-completion bookkeeping, timeout/retry recovery in the page-fault
   path, and the differential harness — a clean fabric must reproduce
   the pre-injector results byte-for-byte, a faulty one must replay
   byte-identically from its seed while still conserving every request,
   and the fetch protocol's rarer paths are pinned to literal rows and
   trace digests on all five systems. *)

module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Link = Adios_rdma.Link
module Verbs = Adios_rdma.Verbs
module Nic = Adios_rdma.Nic
module Injector = Adios_fault.Injector
module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Export = Adios_core.Export
module Sink = Adios_trace.Sink
module Checker = Adios_trace.Checker

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let all_systems = [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

(* --- injector --------------------------------------------------------- *)

let test_injector_enabled () =
  check_bool "none injects nothing" false (Injector.enabled Injector.none);
  check_bool "drop enables" true
    (Injector.enabled { Injector.none with Injector.drop = 0.1 });
  check_bool "throttle enables" true
    (Injector.enabled { Injector.none with Injector.throttle = 0.5 });
  (* a stall probability without a window length can never fire *)
  check_bool "stall needs a window" false
    (Injector.enabled { Injector.none with Injector.stall = 0.5 })

let drain inj n =
  List.init n (fun i ->
      Injector.on_completion inj ~now:(i * 1000) ~is_read:(i mod 3 <> 0)
        ~qp:(i mod 4) ~base_cycles:1000)

let test_injector_deterministic () =
  let cfg =
    {
      Injector.none with
      Injector.drop = 0.2;
      spike = 0.3;
      stall = 0.1;
      stall_cycles = 5000;
      seed = 9;
    }
  in
  let a = drain (Injector.create cfg) 500 in
  let b = drain (Injector.create cfg) 500 in
  check_bool "same seed, same schedule" true (a = b);
  let c = drain (Injector.create { cfg with Injector.seed = 10 }) 500 in
  check_bool "different seed, different schedule" true (a <> c);
  check_bool "schedule is not all-Deliver" true
    (List.exists (fun v -> v <> Injector.Deliver) a)

let test_injector_drops_reads_only () =
  let inj =
    Injector.create { Injector.none with Injector.drop = 1.0; seed = 3 }
  in
  for i = 0 to 99 do
    let v =
      Injector.on_completion inj ~now:i ~is_read:false ~qp:0 ~base_cycles:1000
    in
    check_bool "writes never dropped" true (v <> Injector.Drop)
  done;
  let v =
    Injector.on_completion inj ~now:0 ~is_read:true ~qp:0 ~base_cycles:1000
  in
  check_bool "reads dropped" true (v = Injector.Drop);
  check_int "stats count the drop" 1 (Injector.stats inj).Injector.drops;
  check_int "injected total" 1 (Injector.injected inj)

(* --- nic lost completions --------------------------------------------- *)

(* Regression for the silently-vanishing completion: a dropped CQE must
   still release its QP slot and be counted, never wedge the QP. *)
let test_nic_drop_frees_slot () =
  let sim = Sim.create () in
  let rx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let tx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let fault =
    Injector.create { Injector.none with Injector.drop = 1.0; seed = 5 }
  in
  let nic =
    Nic.create ~fault sim ~rx_link:rx ~tx_link:tx ~wqe_overhead_cycles:100
      ~base_latency_cycles:1000 ()
  in
  let qp = Nic.create_qp nic ~depth:1 in
  let cq = Verbs.Cq.create () in
  let fired = ref 0 in
  let post () =
    Nic.post qp ~opcode:Verbs.Read ~bytes:4096 ~cq
      ~user:(fun () -> incr fired)
  in
  check_bool "posted" true (post ());
  check_bool "qp full at depth 1" false (post ());
  Sim.run sim;
  check_int "no CQE delivered" 0 (Verbs.Cq.depth cq);
  check_int "loss counted" 1 (Nic.dropped_completions nic);
  check_int "completion callback never ran" 0 !fired;
  check_int "slot released" 0 (Nic.outstanding qp);
  check_bool "qp usable again" true (post ());
  Sim.run sim;
  check_int "second loss counted" 2 (Nic.dropped_completions nic)

let test_nic_writes_survive_drop_config () =
  let sim = Sim.create () in
  let rx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let tx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let fault =
    Injector.create { Injector.none with Injector.drop = 1.0; seed = 5 }
  in
  let nic =
    Nic.create ~fault sim ~rx_link:rx ~tx_link:tx ~wqe_overhead_cycles:100
      ~base_latency_cycles:1000 ()
  in
  let qp = Nic.create_qp nic ~depth:4 in
  let cq = Verbs.Cq.create () in
  let ok =
    Nic.post qp ~opcode:Verbs.Write ~bytes:4096 ~cq ~user:(fun () -> ())
  in
  check_bool "posted" true ok;
  Sim.run sim;
  check_int "write CQE delivered" 1 (Verbs.Cq.depth cq);
  check_int "nothing lost" 0 (Nic.dropped_completions nic)

(* --- differential harness --------------------------------------------- *)

(* Pre-injector result rows (the seed commit's 23 columns) for
   Config.default on the 2048-page array app at 800 krps x 4000
   requests. A clean fabric must keep reproducing these bytes. *)
let golden_rows =
  [
    ( Config.Dilos,
      "DiLOS,array,769.5,769.5,0.0000,7.584,8.896,11.072,12.224,7.059,0.2609,3243,7,3227,0,0,322,0,0,0,0,0,0"
    );
    ( Config.Dilos_p,
      "DiLOS-P,array,769.1,769.1,0.0000,8.160,9.792,13.120,15.168,7.655,0.2610,3245,7,3245,3245,0,335,0,0,0,0,0,0"
    );
    ( Config.Adios,
      "Adios,array,769.6,769.6,0.0000,7.584,8.032,8.640,9.280,6.823,0.2618,3253,7,3252,0,0,0,0,0,0,0,0,0"
    );
    ( Config.Hermit,
      "Hermit,array,726.7,726.7,0.0000,10.432,20.096,35.584,337.920,13.556,0.2471,3236,7,3220,0,0,324,0,0,0,0,0,0"
    );
  ]

let split_csv line = String.split_on_char ',' line

let take n l = List.filteri (fun i _ -> i < n) l

let clean_run sys =
  Runner.run (Config.default sys) (small_array ()) ~offered_krps:800.
    ~requests:4000 ()

let test_zero_fault_matches_baseline () =
  List.iter
    (fun (sys, golden) ->
      let row = Export.csv_row (clean_run sys) in
      let cols = split_csv row in
      check_string
        (Config.system_name sys ^ " baseline prefix")
        golden
        (String.concat "," (take 23 cols));
      let fault_columns =
        [
          "errored";
          "fetch_timeouts";
          "fetch_retries";
          "retries_hwm";
          "faults_injected";
          "drops_qp";
        ]
      in
      List.iter2
        (fun name c ->
          if List.mem name fault_columns then
            check_string
              (Printf.sprintf "%s fault column %s idle"
                 (Config.system_name sys) name)
              "0" c)
        (split_csv Export.csv_header)
        cols)
    golden_rows

let faulty_cfg ?(drop = 0.05) ?(retries = 3) ?(fseed = 11) sys =
  {
    (Config.default sys) with
    Config.fault =
      {
        Injector.none with
        Injector.drop;
        spike = 0.02;
        stall = 0.01;
        stall_cycles = Clock.of_us 20.;
        seed = fseed;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = retries;
  }

(* --- recovery pins --------------------------------------------------------- *)

(* Literal [csv_row ^ "," ^ cluster_csv_row] for every system on six
   configurations that drive the fault protocol's rarer paths, so a
   reordered repost or a prefetch timeout that stops counting as wasted
   shows up as a changed byte rather than passing a self-comparison:
   (a) reposts on a lossy fabric; (b) retry exhaustion; (c) full QPs,
   both on the worker and from repost timers; (d) prefetch timeouts;
   (e) reads posted with every replica dead; (f) failovers. *)

let five_systems = all_systems @ [ Config.Steal ]
let scan_app () = Adios_apps.Rocksdb.app ~scan_fraction:0.2 ()

let crash_cfg sys ~nodes ~replication ~prefetch =
  {
    (Config.default sys) with
    Config.prefetch;
    fetch_timeout = Clock.of_us 50.;
    cluster =
      {
        Adios_cluster.Cluster.nodes;
        replication;
        crashes = 1;
        crash_at = Clock.of_us 500.;
      };
  }

(* name, configuration, app, offered krps, requests *)
let pin_cases =
  [
    ("a", (fun sys -> faulty_cfg sys), small_array, 800., 3000);
    ( "b",
      (fun sys -> faulty_cfg ~drop:0.6 ~retries:1 sys),
      small_array,
      800.,
      3000 );
    ( "c",
      (fun sys ->
        { (faulty_cfg sys) with Config.qp_depth = 4; local_ratio = 0.05 }),
      small_array,
      2500.,
      3000 );
    ( "d",
      (fun sys -> { (faulty_cfg sys) with Config.prefetch = Config.Stride 8 }),
      scan_app,
      100.,
      2000 );
    ( "e",
      crash_cfg ~nodes:2 ~replication:1 ~prefetch:(Config.Stride 8),
      scan_app,
      100.,
      2000 );
    ( "f",
      crash_cfg ~nodes:3 ~replication:2 ~prefetch:Config.No_prefetch,
      small_array,
      800.,
      3000 );
  ]

let pin_run ?trace case sys =
  let _, cfg, app, load, requests =
    List.find (fun (n, _, _, _, _) -> n = case) pin_cases
  in
  Runner.run (cfg sys) (app ()) ~offered_krps:load ~requests ?trace ()

let pinned_rows =
  [
    ( ("a", Config.Dilos),
      "DiLOS,array,763.4,763.4,0.0000,7.648,13.632,58.624,156.672,10.108,0.2703,2430,4,2428,0,0,250,0,0,0,0,0,0,0,116,116,2,189,0,3000,3000,3000,0,26,3000,0.0619,0.0585,0.5609,0.0000,0.0048,0.0000,0.0038,0.3101,0,0,0,1,1,0,0,0,0,0,0,67322" );
    ( ("a", Config.Dilos_p),
      "DiLOS-P,array,763.3,763.3,0.0000,8.512,21.376,62.208,158.720,12.027,0.2695,2425,5,2401,2426,0,242,0,0,0,0,0,0,0,116,116,2,189,0,3000,3000,3000,0,34,3000,0.0795,0.0588,0.5577,0.0000,0.0063,0.0000,0.0038,0.2939,0,0,0,1,1,0,0,0,0,0,0,80631" );
    ( ("a", Config.Adios),
      "Adios,array,763.4,763.4,0.0000,7.584,8.256,58.112,80.384,8.897,0.2711,2438,5,2436,0,0,0,0,0,0,0,0,0,0,116,116,2,189,0,3000,3000,3000,0,19,3000,0.0619,0.0426,0.0000,0.0031,0.0048,0.0000,0.0038,0.8839,0,0,0,1,1,0,0,0,0,0,0,78236" );
    ( ("a", Config.Hermit),
      "Hermit,array,673.4,673.4,0.0000,140.288,197.632,292.864,501.760,148.766,0.2466,2419,5,2416,0,0,225,0,0,0,0,0,0,0,116,116,3,189,0,3000,3000,3000,0,192,3000,0.2811,0.1335,0.5153,0.0000,0.0043,0.0000,0.0034,0.0625,0,0,0,1,1,0,0,0,0,0,0,70550" );
    ( ("a", Config.Steal),
      "Steal,array,763.4,763.4,0.0000,7.584,8.256,58.112,158.720,9.086,0.2709,2436,8,2432,0,0,0,0,0,0,0,0,0,0,116,116,3,189,0,3000,3000,3000,0,19,3000,0.0619,0.0425,0.0000,0.0031,0.0048,0.0040,0.0038,0.8799,0,192,0,1,1,0,0,0,0,0,0,116385" );
    ( ("b", Config.Dilos),
      "DiLOS,array,127.6,90.5,0.0000,9895.936,16056.320,17432.576,17432.576,9788.449,0.0747,2427,9,1537,0,0,77,0,0,0,0,0,0,877,2330,1453,1,2377,0,3000,2123,3000,0,2465,3000,0.0095,0.0081,0.9735,0.0000,0.0009,0.0000,0.0007,0.0073,0,0,0,1,1,0,0,0,0,0,0,70642" );
    ( ("b", Config.Dilos_p),
      "DiLOS-P,array,127.1,90.6,0.0000,18481.152,20054.016,20578.304,20578.304,16237.084,0.0740,2408,6,1529,1541,0,80,0,0,0,0,0,0,868,2320,1452,1,2367,0,3000,2132,3000,0,2650,3000,0.0115,0.0080,0.9633,0.0000,0.0010,0.0000,0.0007,0.0154,0,0,0,1,1,0,0,0,0,0,0,79031" );
    ( ("b", Config.Adios),
      "Adios,array,733.4,513.6,0.0000,7.840,58.112,79.360,171.008,22.353,0.4087,2494,73,1627,0,0,0,0,0,0,0,0,0,903,2396,1493,1,2446,0,3000,2097,3000,0,68,3000,0.0500,0.0378,0.0000,0.0031,0.0046,0.0000,0.0037,0.9007,0,0,0,1,1,0,0,0,0,0,0,81740" );
    ( ("b", Config.Hermit),
      "Hermit,array,120.3,85.1,0.0000,10420.224,17170.432,18481.152,18743.296,10444.571,0.0699,2413,7,1523,0,0,69,0,0,0,0,0,0,881,2314,1433,1,2361,0,3000,2119,3000,0,2500,3000,0.0526,0.0234,0.9166,0.0000,0.0008,0.0000,0.0007,0.0059,0,0,0,1,1,0,0,0,0,0,0,73469" );
    ( ("b", Config.Steal),
      "Steal,array,734.4,518.7,0.0000,7.840,58.112,68.096,179.200,23.140,0.4135,2498,72,1637,0,0,0,0,0,0,0,0,0,890,2420,1530,1,2470,0,3000,2110,3000,0,68,3000,0.0502,0.0380,0.0000,0.0031,0.0046,0.0057,0.0037,0.8947,0,216,0,1,1,0,0,0,0,0,0,121985" );
    ( ("c", Config.Dilos),
      "DiLOS,array,795.1,795.1,0.0000,1204.224,2039.808,2211.840,2244.608,1216.510,0.3523,2848,9,2848,0,0,891,0,0,0,0,0,0,0,136,136,2,221,0,3000,3000,3000,0,1925,3000,0.0692,0.1230,0.7617,0.0000,0.0053,0.0000,0.0043,0.0366,0,0,0,1,1,0,0,0,0,0,0,72012" );
    ( ("c", Config.Dilos_p),
      "DiLOS-P,array,688.8,688.8,0.0000,2867.200,3096.576,3129.344,3129.344,2612.619,0.3055,2850,7,2846,2853,0,916,0,0,0,0,0,0,0,136,136,3,221,0,3000,3000,3000,0,2607,3000,0.0803,0.1067,0.6786,0.0000,0.0064,0.0000,0.0037,0.1243,0,0,0,1,1,0,0,0,0,0,0,86545" );
    ( ("c", Config.Adios),
      "Adios,array,1843.9,1843.9,0.0000,152.576,272.384,305.152,346.112,160.836,0.7804,2856,67,2849,0,82539,54,0,0,0,0,0,0,0,136,136,2,221,0,3000,3000,3000,0,601,3000,0.1531,0.7024,0.0000,0.0092,0.0118,0.0000,0.0094,0.1142,0,0,0,1,1,0,0,0,0,0,0,156401" );
    ( ("c", Config.Hermit),
      "Hermit,array,577.3,577.3,0.0000,1925.120,3227.648,3489.792,3522.560,1938.773,0.2573,2842,5,2836,0,0,800,0,0,0,0,0,0,0,136,136,2,221,0,3000,3000,3000,0,2268,3000,0.2440,0.1743,0.5468,0.0000,0.0039,0.0000,0.0031,0.0279,0,0,0,1,1,0,0,0,0,0,0,75176" );
    ( ("c", Config.Steal),
      "Steal,array,1844.0,1843.3,0.0000,154.624,268.288,305.152,354.304,158.856,0.7773,2852,71,2837,0,88529,61,0,0,0,0,0,0,1,136,135,3,221,0,3000,2999,3000,0,599,3000,0.1530,0.7649,0.0000,0.0091,0.0118,0.0029,0.0094,0.0488,0,125,0,1,1,0,0,0,0,0,0,158870" );
    ( ("d", Config.Dilos),
      "DiLOS,rocksdb-1024B,101.3,101.3,0.0000,8.896,114.176,199.680,309.248,33.924,0.2705,4622,286,11867,0,0,97,0,0,0,7753,6392,1127,0,648,246,3,1001,0,2000,2000,2000,0,13,2000,0.0457,0.0190,0.3305,0.0000,0.0006,0.0000,0.0005,0.6038,0,0,0,1,1,0,0,0,0,0,0,152695" );
    ( ("d", Config.Dilos_p),
      "DiLOS-P,rocksdb-1024B,100.5,100.5,0.0000,9.024,117.248,205.824,292.864,34.733,0.2677,4612,278,11898,2743,0,114,0,0,0,7710,6429,1051,0,648,261,2,997,0,2000,2000,2000,0,14,2000,0.0500,0.0189,0.3280,0.0000,0.0010,0.0000,0.0005,0.6016,0,0,0,1,1,0,0,0,0,0,0,209061" );
    ( ("d", Config.Adios),
      "Adios,rocksdb-1024B,101.5,101.5,0.0000,8.896,111.104,211.968,317.440,33.810,0.2750,4585,282,12060,0,0,0,0,0,0,7950,6499,1129,0,651,237,2,1011,0,2000,2000,2000,0,12,2000,0.0458,0.0174,0.0000,0.0012,0.0006,0.0000,0.0005,0.9344,0,0,0,1,1,0,0,0,0,0,0,175800" );
    ( ("d", Config.Hermit),
      "Hermit,rocksdb-1024B,101.6,101.6,0.0000,11.584,125.440,224.256,382.976,39.096,0.2741,4644,277,11881,0,0,95,0,0,0,7832,6404,1160,0,653,254,3,1009,0,2000,2000,2000,0,16,2000,0.0708,0.0543,0.3312,0.0000,0.0006,0.0000,0.0005,0.5425,0,0,0,1,1,0,0,0,0,0,0,155202" );
    ( ("d", Config.Steal),
      "Steal,rocksdb-1024B,101.4,101.4,0.0000,9.024,109.056,201.728,301.056,33.492,0.2746,4566,274,12146,0,0,0,0,0,0,7996,6517,1168,0,652,240,3,1012,0,2000,2000,2000,0,12,2000,0.0457,0.0174,0.0000,0.0012,0.0006,0.0010,0.0005,0.9335,0,275,0,1,1,0,0,0,0,0,0,228461" );
    ( ("e", Config.Dilos),
      "DiLOS,rocksdb-1024B,13.5,3.6,0.0000,55312.384,105381.888,114545.038,114545.038,59250.347,0.0099,2256,22,818,0,0,6,0,0,0,193,132,30,1414,5686,4242,3,0,0,2000,586,2000,0,1659,2000,0.0026,0.0010,0.9906,0.0000,0.0001,0.0000,0.0001,0.0056,0,0,0,2,1,1,1,0,0,0,5656,75775" );
    ( ("e", Config.Dilos_p),
      "DiLOS-P,rocksdb-1024B,13.5,3.6,0.0000,48496.640,93847.552,101187.584,101187.584,52229.052,0.0099,2253,21,821,252,0,6,0,0,0,186,132,23,1414,5679,4242,3,0,0,2000,586,2000,0,1648,2000,0.0027,0.0010,0.9924,0.0000,0.0001,0.0000,0.0001,0.0038,0,0,0,2,1,1,1,0,0,0,5656,80503" );
    ( ("e", Config.Adios),
      "Adios,rocksdb-1024B,91.6,24.5,0.0000,8.384,8.384,8.640,8.895,6.823,0.0632,2294,243,1044,0,0,0,0,0,0,197,140,30,1417,5698,4251,3,0,0,2000,583,2000,0,88,2000,0.0164,0.0060,0.0000,0.0006,0.0006,0.0000,0.0005,0.9759,0,0,0,2,1,1,1,0,0,0,5668,95600" );
    ( ("e", Config.Hermit),
      "Hermit,rocksdb-1024B,13.5,3.6,0.0000,55836.672,106430.464,114819.072,115348.658,59701.354,0.0098,2252,21,815,0,0,6,0,0,0,173,131,16,1414,5672,4242,3,0,0,2000,586,2000,0,1660,2000,0.0063,0.0035,0.9853,0.0000,0.0001,0.0000,0.0001,0.0049,0,0,0,2,1,1,1,0,0,0,5655,77668" );
    ( ("e", Config.Steal),
      "Steal,rocksdb-1024B,91.6,24.5,0.0000,8.384,8.384,8.640,8.895,6.823,0.0632,2326,243,1044,0,0,0,0,0,0,197,140,30,1417,5698,4251,3,0,0,2000,583,2000,0,88,2000,0.0164,0.0061,0.0000,0.0006,0.0006,0.0005,0.0005,0.9754,0,64,0,2,1,1,1,0,0,0,5668,129664" );
    ( ("f", Config.Dilos),
      "DiLOS,array,763.4,763.4,0.0000,7.584,8.384,10.816,11.584,6.983,0.1398,2433,3,2420,0,0,244,0,0,0,0,0,0,0,0,0,0,0,0,3000,3000,3000,0,17,3000,0.0619,0.0585,0.3493,0.0000,0.0048,0.0000,0.0038,0.5218,0,0,0,3,2,1,1,140,1365,0,0,76235" );
    ( ("f", Config.Dilos_p),
      "DiLOS-P,array,763.3,763.3,0.0000,8.160,9.536,12.096,12.992,7.555,0.1398,2433,3,2425,2433,0,249,0,0,0,0,0,0,0,0,0,0,0,0,3000,3000,3000,0,18,3000,0.0796,0.0587,0.3495,0.0000,0.0063,0.0000,0.0038,0.5021,0,0,0,3,2,1,1,140,1365,0,0,89599" );
    ( ("f", Config.Adios),
      "Adios,array,763.4,763.4,0.0000,7.584,7.968,8.512,8.896,6.790,0.1399,2437,3,2434,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,3000,3000,3000,0,16,3000,0.0619,0.0426,0.0000,0.0031,0.0048,0.0000,0.0038,0.8839,0,0,0,3,2,1,1,143,1365,0,0,87321" );
    ( ("f", Config.Hermit),
      "Hermit,array,724.0,724.0,0.0000,10.304,22.400,56.064,337.920,14.162,0.1336,2421,4,2401,0,0,240,0,0,0,0,0,0,0,0,0,0,0,0,3000,3000,3000,0,65,3000,0.3002,0.1436,0.3305,0.0000,0.0045,0.0000,0.0036,0.2175,0,0,0,3,2,1,1,149,1365,0,0,79360" );
    ( ("f", Config.Steal),
      "Steal,array,763.4,763.4,0.0000,7.584,7.968,8.384,8.745,6.785,0.1399,2435,3,2431,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,3000,3000,3000,0,16,3000,0.0619,0.0425,0.0000,0.0031,0.0048,0.0031,0.0038,0.8809,0,152,0,3,2,1,1,142,1365,0,0,125149" );
  ]

let test_pinned_rows () =
  List.iter
    (fun (case, _, _, _, _) ->
      List.iter
        (fun sys ->
          let r = pin_run case sys in
          let name = Config.system_name sys in
          check_string
            (Printf.sprintf "(%s) %s" case name)
            (List.assoc (case, sys) pinned_rows)
            (Export.csv_row r ^ "," ^ Export.cluster_csv_row r))
        five_systems)
    pin_cases

(* Digest of a whole trace, one [ts kind req worker page] line per
   event. *)
let trace_digest case sys =
  let trace = Sink.create ~capacity:2_000_000 in
  ignore (pin_run ~trace case sys);
  check_int "trace ring held the whole run" 0 (Sink.dropped trace);
  let b = Buffer.create (1 lsl 20) in
  Sink.iter
    (fun (e : Adios_trace.Event.t) ->
      Printf.bprintf b "%d %s %d %d %d\n" e.ts
        (Adios_trace.Event.kind_name e.kind)
        e.req e.worker e.page)
    trace;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_traces =
  [
    (("d", Config.Adios), "cc0a7496faabc5ff270558a4db3090ba");
    (("b", Config.Dilos), "a2e8234d800b3267ad0bbf66eb55bdb5");
    (("e", Config.Steal), "187e95ce8457b1d01e569e42f6f510d3");
  ]

let test_pinned_traces () =
  List.iter
    (fun ((case, sys), digest) ->
      check_string
        (Printf.sprintf "(%s) %s trace" case (Config.system_name sys))
        digest (trace_digest case sys))
    pinned_traces

let test_fault_runs_deterministic () =
  List.iter
    (fun sys ->
      let row () =
        Export.csv_row
          (Runner.run (faulty_cfg sys) (small_array ()) ~offered_krps:800.
             ~requests:4000 ())
      in
      check_string
        (Config.system_name sys ^ " same fault seed, same bytes")
        (row ()) (row ()))
    all_systems

let test_fault_schedule_independent_of_tracing () =
  let cfg = faulty_cfg Config.Adios in
  let bare =
    Runner.run cfg (small_array ()) ~offered_krps:800. ~requests:4000 ()
  in
  let traced =
    Runner.run cfg (small_array ()) ~offered_krps:800. ~requests:4000
      ~trace:(Sink.create ~capacity:2_000_000)
      ()
  in
  check_string "tracing does not move the faults" (Export.csv_row bare)
    (Export.csv_row traced);
  check_bool "faults actually injected" true (bare.Runner.faults_injected > 0)

let test_fault_seed_changes_schedule () =
  let run fseed =
    Runner.run
      (faulty_cfg ~fseed Config.Adios)
      (small_array ()) ~offered_krps:800. ~requests:4000 ()
  in
  check_bool "fault seed matters" true
    (Export.csv_row (run 11) <> Export.csv_row (run 12))

(* --- recovery --------------------------------------------------------- *)

let test_recovery_no_wedge_all_systems () =
  List.iter
    (fun sys ->
      let trace = Sink.create ~capacity:2_000_000 in
      let r =
        Runner.run (faulty_cfg sys) (small_array ()) ~offered_krps:800.
          ~requests:4000 ~trace ()
      in
      let name = Config.system_name sys in
      check_int (name ^ " conservation") 4000
        (r.Runner.completed + r.Runner.dropped);
      check_bool (name ^ " losses occurred") true (r.Runner.fetch_timeouts > 0);
      check_bool
        (name ^ " retries bounded")
        true
        (r.Runner.retries_hwm <= 3);
      let report = Checker.check (Sink.to_list trace) in
      check (Alcotest.list Alcotest.string) (name ^ " invariants") []
        report.Checker.errors)
    all_systems

let test_retry_exhaustion_surfaces_errors () =
  let trace = Sink.create ~capacity:2_000_000 in
  let r =
    Runner.run
      (faulty_cfg ~drop:0.6 ~retries:1 Config.Adios)
      (small_array ()) ~offered_krps:800. ~requests:4000 ~trace ()
  in
  check_bool "some requests errored" true (r.Runner.errored > 0);
  check_int "errored replies still conserve requests" 4000
    (r.Runner.completed + r.Runner.dropped);
  check_bool "retries capped at the budget" true (r.Runner.retries_hwm <= 1);
  let report = Checker.check (Sink.to_list trace) in
  check (Alcotest.list Alcotest.string) "invariants under exhaustion" []
    report.Checker.errors;
  check_int "trace sees the same error count" r.Runner.errored
    report.Checker.errored

(* A memory node counts a READ once, when the worker's QP accepts it.
   Pin (c)'s fabric and QP depth on two nodes, with no crash and so no
   re-replication, make timer reposts meet full QPs and retry; the
   nodes' READ counters must still sum to the worker-side [rdma_issue]
   events (the reclaimer's write-backs carry [reclaimer_actor]). Only a
   yield system keeps enough fetches in flight per worker to fill a
   QP this way. *)
let test_reads_counted_once () =
  List.iter
    (fun sys ->
      let name = Config.system_name sys in
      let cfg =
        {
          (faulty_cfg sys) with
          Config.qp_depth = 4;
          local_ratio = 0.05;
          cluster = { Adios_cluster.Cluster.default with nodes = 2 };
        }
      in
      let trace = Sink.create ~capacity:2_000_000 in
      let metrics = Adios_obs.Registry.create () in
      ignore
        (Runner.run cfg (small_array ()) ~offered_krps:2500. ~requests:3000
           ~trace ~metrics ());
      check_int (name ^ " trace ring held the whole run") 0
        (Sink.dropped trace);
      let events = Sink.to_list trace in
      let kind_at k (e : Adios_trace.Event.t) = e.Adios_trace.Event.kind = k in
      let issued =
        List.length
          (List.filter
             (fun (e : Adios_trace.Event.t) ->
               kind_at Adios_trace.Event.Rdma_issue e
               && e.worker <> Adios_trace.Event.reclaimer_actor)
             events)
      in
      (* a timer's repost that meets a full QP stalls in the same cycle,
         on the same page, as its retry *)
      let rec refused_reposts n = function
        | (r : Adios_trace.Event.t) :: ((s : Adios_trace.Event.t) :: _ as rest)
          ->
          let hit =
            kind_at Adios_trace.Event.Fetch_retry r
            && kind_at Adios_trace.Event.Stall_qp s
            && r.ts = s.ts && r.page = s.page
          in
          refused_reposts (if hit then n + 1 else n) rest
        | [ _ ] | [] -> n
      in
      check_bool (name ^ " timer reposts met full QPs") true
        (refused_reposts 0 events > 0);
      let prefix = "adios_cluster_node_reads_total{" in
      let reads =
        List.fold_left
          (fun acc (series, read) ->
            if String.starts_with ~prefix series then
              acc + int_of_float (read ())
            else acc)
          0
          (Adios_obs.Registry.scalar_series metrics)
      in
      check_int (name ^ " node READs = worker rdma_issue events") issued reads)
    [ Config.Adios; Config.Steal ]

(* --- properties ------------------------------------------------------- *)

let qcheck_cases =
  let gen =
    QCheck.make
      ~print:(fun (sys, load, requests, drop, spike, fseed) ->
        Printf.sprintf "(%s, %.0f krps, %d reqs, drop %.3f, spike %.3f, fseed %d)"
          (Config.system_name sys) load requests drop spike fseed)
      QCheck.Gen.(
        let* sys = oneofl all_systems in
        let* load = float_range 300. 1200. in
        let* requests = int_range 500 2500 in
        let* drop = float_range 0. 0.15 in
        let* spike = float_range 0. 0.1 in
        let* fseed = int_range 1 10_000 in
        return (sys, load, requests, drop, spike, fseed))
  in
  let faulted_run (sys, load, requests, drop, spike, fseed) ~trace =
    let cfg =
      {
        (Config.default sys) with
        Config.fault =
          { Injector.none with Injector.drop; spike; seed = fseed };
        fetch_timeout = Clock.of_us 50.;
        fetch_retries = 3;
      }
    in
    Runner.run cfg (small_array ()) ~offered_krps:load ~requests ~trace ()
  in
  [
    QCheck.Test.make ~count:10
      ~name:"conservation + bounded retries under any fault schedule" gen
      (fun ((_, _, requests, _, _, _) as case) ->
        let trace = Sink.create ~capacity:2_000_000 in
        let r = faulted_run case ~trace in
        r.Runner.completed + r.Runner.dropped = requests
        && r.Runner.errored <= r.Runner.completed
        && r.Runner.retries_hwm <= 3
        && Checker.ok (Checker.check (Sink.to_list trace)));
    QCheck.Test.make ~count:6 ~name:"fault replay is byte-identical" gen
      (fun case ->
        let row () = Export.csv_row (faulted_run case ~trace:Sink.null) in
        row () = row ());
  ]

let () =
  Alcotest.run "fault"
    [
      ( "injector",
        [
          Alcotest.test_case "enabled predicate" `Quick test_injector_enabled;
          Alcotest.test_case "deterministic schedule" `Quick
            test_injector_deterministic;
          Alcotest.test_case "drops reads only" `Quick
            test_injector_drops_reads_only;
        ] );
      ( "nic",
        [
          Alcotest.test_case "drop frees the qp slot" `Quick
            test_nic_drop_frees_slot;
          Alcotest.test_case "writes survive drop config" `Quick
            test_nic_writes_survive_drop_config;
        ] );
      ( "differential",
        [
          Alcotest.test_case "zero faults = baseline bytes" `Slow
            test_zero_fault_matches_baseline;
          Alcotest.test_case "fault runs deterministic" `Slow
            test_fault_runs_deterministic;
          Alcotest.test_case "schedule independent of tracing" `Quick
            test_fault_schedule_independent_of_tracing;
          Alcotest.test_case "fault seed changes schedule" `Quick
            test_fault_seed_changes_schedule;
        ] );
      ( "pins",
        [
          Alcotest.test_case "rows on six recovery configurations" `Slow
            test_pinned_rows;
          Alcotest.test_case "trace digests" `Slow test_pinned_traces;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "no wedge on any system" `Slow
            test_recovery_no_wedge_all_systems;
          Alcotest.test_case "retry exhaustion surfaces errors" `Quick
            test_retry_exhaustion_surfaces_errors;
          Alcotest.test_case "a READ counts once, when posted" `Quick
            test_reads_counted_once;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
