(* Integration tests: miniature end-to-end experiments asserting the
   paper's ordering properties (section 7 of DESIGN.md). *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Summary = Adios_stats.Summary
module Rng = Adios_engine.Rng
module App = Adios_core.App
module Request = Adios_core.Request
module System = Adios_core.System
module Accountant = Adios_obs.Accountant
module Phase = Adios_prof.Phase
module Profiler = Adios_prof.Profiler

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

let run ?(cfg_tweak = fun c -> c) ?profile system ~load ~requests =
  let cfg = cfg_tweak (Config.default system) in
  Runner.run cfg (small_array ()) ~offered_krps:load ~requests ?profile ()

let test_conservation () =
  List.iter
    (fun sys ->
      let r = run sys ~load:800. ~requests:8000 in
      check_int
        (Config.system_name sys ^ " conservation")
        8000
        (r.Runner.completed + r.Runner.dropped))
    [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let test_no_drops_at_low_load () =
  List.iter
    (fun sys ->
      let r = run sys ~load:300. ~requests:6000 in
      check_int (Config.system_name sys ^ " no drops") 0 r.Runner.dropped;
      check_bool
        (Config.system_name sys ^ " sane latency")
        true
        (r.Runner.e2e.Summary.p50 > 0
        && r.Runner.e2e.Summary.p50 < Adios_engine.Clock.of_us 50.))
    [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let test_determinism () =
  let r1 = run Config.Adios ~load:900. ~requests:8000 in
  let r2 = run Config.Adios ~load:900. ~requests:8000 in
  check_int "same p999" r1.Runner.e2e.Summary.p999 r2.Runner.e2e.Summary.p999;
  check_int "same p50" r1.Runner.e2e.Summary.p50 r2.Runner.e2e.Summary.p50;
  check_int "same faults" r1.Runner.faults r2.Runner.faults;
  check (Alcotest.float 1e-9) "same throughput" r1.Runner.achieved_krps
    r2.Runner.achieved_krps

let test_seed_changes_results () =
  let r1 = run Config.Adios ~load:900. ~requests:8000 in
  let r2 =
    run Config.Adios ~load:900. ~requests:8000 ~cfg_tweak:(fun c ->
        { c with Config.seed = 1337 })
  in
  check_bool "different stream" true (r1.Runner.faults <> r2.Runner.faults)

let test_adios_beats_dilos_at_saturation () =
  (* overload both; Adios must push more throughput and a lower tail *)
  let d = run Config.Dilos ~load:2200. ~requests:25_000 in
  let a = run Config.Adios ~load:2200. ~requests:25_000 in
  check_bool "throughput" true
    (a.Runner.achieved_krps > 1.2 *. d.Runner.achieved_krps);
  check_bool "rdma utilization" true (a.Runner.rdma_util > d.Runner.rdma_util)

let test_adios_tail_beats_dilos_at_knee () =
  (* near DiLOS's knee the busy-wait queueing dominates its tail *)
  let d = run Config.Dilos ~load:1450. ~requests:25_000 in
  let a = run Config.Adios ~load:1450. ~requests:25_000 in
  check_bool "p99.9 gap" true
    (float_of_int d.Runner.e2e.Summary.p999
    > 1.5 *. float_of_int a.Runner.e2e.Summary.p999)

let test_dilos_wins_at_full_locality () =
  (* with 100% local memory there is nothing to yield for; the simpler
     busy-wait code path is slightly faster (section 5.1) *)
  let full c = { c with Config.local_ratio = 1.0 } in
  let d = run Config.Dilos ~load:2000. ~requests:15_000 ~cfg_tweak:full in
  let a = run Config.Adios ~load:2000. ~requests:15_000 ~cfg_tweak:full in
  check_int "dilos no faults" 0 d.Runner.faults;
  check_int "adios no faults" 0 a.Runner.faults;
  check_bool "dilos at least as fast" true
    (d.Runner.e2e.Summary.p50 <= a.Runner.e2e.Summary.p50)

let test_hermit_worse_than_dilos () =
  let h = run Config.Hermit ~load:700. ~requests:15_000 in
  let d = run Config.Dilos ~load:700. ~requests:15_000 in
  check_bool "kernel path tail" true
    (h.Runner.e2e.Summary.p999 > 3 * d.Runner.e2e.Summary.p999)

let test_dilos_p_preempts () =
  let p = run Config.Dilos_p ~load:1000. ~requests:10_000 in
  let d = run Config.Dilos ~load:1000. ~requests:10_000 in
  check_bool "preemptions happen" true (p.Runner.preemptions > 0);
  check_int "plain dilos never preempts" 0 d.Runner.preemptions

let test_pf_aware_vs_rr () =
  (* PF-aware dispatching must not be worse than round-robin at the tail
     (Figs. 10e/11e show single-digit-percent improvements) *)
  let rr c = { c with Config.dispatch = Config.Round_robin } in
  let a = run Config.Adios ~load:2000. ~requests:30_000 in
  let b = run Config.Adios ~load:2000. ~requests:30_000 ~cfg_tweak:rr in
  check_bool "pf-aware tail <= rr tail (with slack)" true
    (float_of_int a.Runner.e2e.Summary.p999
    <= 1.10 *. float_of_int b.Runner.e2e.Summary.p999)

let test_polling_delegation_helps () =
  let sync c = { c with Config.tx_mode = Config.Tx_sync_spin } in
  let d = run Config.Adios ~load:2200. ~requests:25_000 in
  let s = run Config.Adios ~load:2200. ~requests:25_000 ~cfg_tweak:sync in
  check_bool "delegation throughput" true
    (d.Runner.achieved_krps >= s.Runner.achieved_krps);
  check_bool "delegation tail" true
    (d.Runner.e2e.Summary.p999 <= s.Runner.e2e.Summary.p999)

(* section 3.4's rejected queueing designs must still be functional and
   show their known pathologies on a busy-waiting system *)
let test_partitioned_hol_blocking () =
  let part c = { c with Config.dispatch = Config.Partitioned } in
  let sq = run Config.Dilos ~load:1200. ~requests:20_000 in
  let pt = run Config.Dilos ~load:1200. ~requests:20_000 ~cfg_tweak:part in
  check_int "partitioned conserves" 20_000
    (pt.Runner.completed + pt.Runner.dropped);
  check_bool "partitioned tail worse than single queue" true
    (pt.Runner.e2e.Summary.p999 > sq.Runner.e2e.Summary.p999)

let test_work_stealing_beats_partitioned () =
  let tweak d c = { c with Config.dispatch = d } in
  let pt =
    run Config.Dilos ~load:1200. ~requests:20_000
      ~cfg_tweak:(tweak Config.Partitioned)
  in
  let ws =
    run Config.Dilos ~load:1200. ~requests:20_000
      ~cfg_tweak:(tweak Config.Work_stealing)
  in
  check_int "stealing conserves" 20_000
    (ws.Runner.completed + ws.Runner.dropped);
  check_bool "stealing rebalances the tail" true
    (ws.Runner.e2e.Summary.p999 <= pt.Runner.e2e.Summary.p999)

let test_queue_drop_path () =
  let tiny c = { c with Config.central_queue_capacity = 16 } in
  let r = run Config.Dilos ~load:2500. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "drops happen" true (r.Runner.dropped > 0);
  check_int "conservation with drops" 15_000
    (r.Runner.completed + r.Runner.dropped)

let test_buffer_drop_path () =
  let tiny c = { c with Config.buffer_count = 32 } in
  let r = run Config.Dilos ~load:2500. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "buffer drops happen" true (r.Runner.dropped > 0);
  check_bool "buffer hwm capped" true (r.Runner.buffer_hwm <= 32);
  check_int "conservation" 15_000 (r.Runner.completed + r.Runner.dropped)

let test_qp_stall_path () =
  let tiny c = { c with Config.qp_depth = 2 } in
  let r = run Config.Adios ~load:1800. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "qp stalls counted" true (r.Runner.qp_stalls > 0);
  check_int "conservation" 15_000 (r.Runner.completed + r.Runner.dropped)

let test_wakeup_reclaimer_works () =
  let wk c = { c with Config.reclaim = Adios_mem.Reclaimer.Wakeup } in
  let r = run Config.Adios ~load:800. ~requests:10_000 ~cfg_tweak:wk in
  check_int "completes" 10_000 (r.Runner.completed + r.Runner.dropped);
  check_bool "evictions happened" true (r.Runner.evictions > 0)

(* an app where every request touches the same page: faults must
   coalesce instead of issuing duplicate fetches *)
let one_page_app () =
  let base = small_array () in
  {
    base with
    App.name = "one-page";
    gen =
      (fun _rng ->
        { Request.kind = 0; key = 0; req_bytes = 64; reply_bytes = 64 });
  }

let test_fault_coalescing () =
  (* tiny cache so page 0 keeps getting evicted and refetched while
     several unithreads race for it *)
  let cfg =
    {
      (Config.default Config.Adios) with
      Config.local_ratio = 0.002 (* ~4 frames of 2048 pages *);
    }
  in
  let r =
    Runner.run cfg (one_page_app ()) ~offered_krps:2000. ~requests:10_000 ()
  in
  check_bool "coalesced faults observed" true (r.Runner.coalesced > 0);
  check_int "conservation" 10_000 (r.Runner.completed + r.Runner.dropped)

let test_csv_export () =
  let r = run Config.Adios ~load:600. ~requests:6000 in
  let row = Adios_core.Export.csv_row r in
  let cols s = List.length (String.split_on_char ',' s) in
  check_int "column count matches" (cols Adios_core.Export.csv_header)
    (cols row);
  check_bool "system column" true (String.starts_with ~prefix:"Adios," row)

let test_memcached_set_mix_writes_back () =
  let app = Adios_apps.Memcached.app ~keys:20_000 ~set_fraction:0.3 () in
  let cfg = Config.default Config.Adios in
  let r = Runner.run cfg app ~offered_krps:400. ~requests:12_000 () in
  check_int "conservation" 12_000 (r.Runner.completed + r.Runner.dropped);
  (* SETs dirty pages; their eviction posts WRITEs to the memory node *)
  check_bool "set summaries present" true
    (List.mem_assoc "SET" r.Runner.kind_summaries)

(* Figs. 2(c)/7(c) read off the profiler's latency bands: mean cycles a
   band's requests spent in one phase is [cycles / requests], so two
   phases of one band compare by their totals. *)
let band (r : Runner.result) name =
  match r.Runner.prof with
  | None -> Alcotest.fail "profiled run carries no phase summary"
  | Some s -> (
    match Array.find_opt (fun b -> b.Profiler.band = name) s.Profiler.bands with
    | Some b -> b
    | None -> Alcotest.fail ("no band " ^ name))

let cycles (b : Profiler.band_stats) p = b.Profiler.phase_cycles.(Phase.index p)

let test_breakdown_recorded () =
  let r = run ~profile:true Config.Dilos ~load:1200. ~requests:10_000 in
  let mid = band r "p50_p99" in
  check_bool "p50-p99 band populated" true (mid.Profiler.requests > 4000);
  check_bool "p50-p99 spins longer than it computes" true
    (cycles mid Phase.Busy_wait > cycles mid Phase.App_compute)

let test_adios_breakdown_has_no_tx_wait () =
  let r = run ~profile:true Config.Adios ~load:1200. ~requests:10_000 in
  check_int "no worker cycle busy-waits" 0
    (Accountant.state_cycles r.Runner.cpu Accountant.Busy_wait);
  List.iter
    (fun name ->
      check_int (name ^ " busy_wait") 0 (cycles (band r name) Phase.Busy_wait))
    (Array.to_list Profiler.band_names);
  check_bool "p99-p99.9 waits in a ready queue" true
    (cycles (band r "p99_p999") Phase.Steal_wait > 0)

(* --- Algorithm 1's order ------------------------------------------------ *)

type candidate = { wid : int; idle : bool; assigned : bool; qp_load : int }

(* Algorithm 1's order as list code (filter the idle workers, then
   stable-sort them), the reference for the dispatcher's array
   version. *)
let reference_order policy ~rr_cursor workers =
  let idle =
    Array.to_list workers |> List.filter (fun w -> w.idle && not w.assigned)
  in
  let n = Array.length workers in
  let sorted =
    match policy with
    | Config.Pf_aware ->
      List.stable_sort (fun a b -> compare a.qp_load b.qp_load) idle
    | Config.Round_robin ->
      List.stable_sort
        (fun a b ->
          compare
            ((a.wid - rr_cursor + n) mod n)
            ((b.wid - rr_cursor + n) mod n))
        idle
    | Config.Partitioned | Config.Work_stealing -> idle
  in
  List.map (fun w -> w.wid) sorted

let prop_dispatch_order =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 16 in
      let* flags = array_size (return n) (triple bool bool (int_range 0 3)) in
      let* rr_cursor = int_range 0 (n - 1) in
      let+ policy =
        oneofl
          [
            Config.Pf_aware; Config.Round_robin; Config.Partitioned;
            Config.Work_stealing;
          ]
      in
      (flags, rr_cursor, policy))
  in
  let print (flags, rr_cursor, policy) =
    Printf.sprintf "%s rr_cursor=%d [%s]"
      (Config.dispatch_name policy) rr_cursor
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (idle, assigned, load) ->
                 Printf.sprintf "%b/%b/%d" idle assigned load)
               flags)))
  in
  QCheck.Test.make ~name:"dispatch order equals the list reference"
    ~count:1000 (QCheck.make ~print gen)
    (fun (flags, rr_cursor, policy) ->
      let workers =
        Array.mapi
          (fun wid (idle, assigned, qp_load) ->
            { wid; idle; assigned; qp_load })
          flags
      in
      let load =
        Array.map
          (fun w -> if w.idle && not w.assigned then w.qp_load else -1)
          workers
      in
      let order = Array.make (Array.length workers) (-1) in
      let len = System.dispatch_order policy ~rr_cursor ~load ~order in
      Array.to_list (Array.sub order 0 len)
      = reference_order policy ~rr_cursor workers)

(* --- bad inputs --------------------------------------------------------- *)

let test_rejects_degenerate_runs () =
  (* a zero or NaN rate would give an infinite mean gap, clamped to a
     burst of arrivals at t = 0 that reports a nonzero offered load;
     no requests would give a row of zeros *)
  let cfg = Config.default Config.Adios in
  let raises name f =
    match f () with
    | (_ : Runner.result) -> Alcotest.failf "%s: the run was accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun load ->
      raises
        (Printf.sprintf "load %g" load)
        (fun () ->
          Runner.run cfg (small_array ()) ~offered_krps:load ~requests:100 ()))
    [ 0.; -1.; Float.nan; Float.infinity ];
  List.iter
    (fun requests ->
      raises
        (Printf.sprintf "%d requests" requests)
        (fun () ->
          Runner.run cfg (small_array ()) ~offered_krps:300. ~requests ()))
    [ 0; -5 ];
  (* where a completion can be lost, a zero deadline would time out
     every fetch the moment it is posted *)
  List.iter
    (fun (name, cfg) ->
      raises name (fun () ->
          Runner.run
            { cfg with Config.fetch_timeout = 0 }
            (small_array ()) ~offered_krps:300. ~requests:100 ()))
    [
      ( "zero timeout, faulty fabric",
        {
          cfg with
          Config.fault =
            { Adios_fault.Injector.none with Adios_fault.Injector.drop = 0.01 };
        } );
      ( "zero timeout, crashing cluster",
        {
          cfg with
          Config.cluster =
            {
              Adios_cluster.Cluster.default with
              Adios_cluster.Cluster.crashes = 1;
            };
        } );
    ];
  let spec_raises name f =
    match f () with
    | (_ : Adios_exp.Spec.t) -> Alcotest.failf "%s: the spec was accepted" name
    | exception Invalid_argument _ -> ()
  in
  spec_raises "spec load 0" (fun () ->
      Adios_exp.Spec.make ~name:"bad" ~loads:[ 0.; 100. ] ());
  spec_raises "spec load nan" (fun () ->
      Adios_exp.Spec.make ~name:"bad" ~loads:[ Float.nan ] ());
  spec_raises "spec requests 0" (fun () ->
      Adios_exp.Spec.make ~name:"bad" ~requests:0 ())

(* Slot reuse: a buffer id keeps one unithread slot for every request
   it admits, reset at admission. With a pool of 2-4 buffers every
   admission reuses a slot, so a field the reset misses carries one
   request's state into the next: a started task (its first dispatch
   would switch back into it), or a stride detector's history (it
   would predict from the previous request's faults). The runs cover
   all five systems (DiLOS-P preempts), stride prefetch on a scanning
   RocksDB, a faulty fabric that errors requests, and synchronous TX.
   Each must reproduce, cell for cell and event for event, the row and
   [sim_events] that the same run gave when every admission built a
   fresh entry, task and detector. *)
let slot_cases =
  let array () = small_array () in
  let scan () = Adios_apps.Rocksdb.app ~keys:4096 ~scan_fraction:0.2 () in
  let cfg ?(buffers = 3) sys f =
    f { (Config.default sys) with Config.buffer_count = buffers }
  in
  List.map
    (fun sys -> (Config.system_name sys, cfg sys Fun.id, array, 900., 3000))
    [ Config.Adios; Config.Dilos; Config.Dilos_p; Config.Hermit; Config.Steal ]
  @ [
      ( "rocksdb-scan stride",
        cfg ~buffers:4 Config.Adios (fun c ->
            { c with Config.prefetch = Config.Stride 8 }),
        scan,
        60.,
        1500 );
      ( "faulty fabric",
        cfg ~buffers:2 Config.Adios (fun c ->
            {
              c with
              Config.fault =
                {
                  Adios_fault.Injector.none with
                  Adios_fault.Injector.drop = 0.6;
                  seed = 3;
                };
              fetch_retries = 1;
            }),
        array,
        300.,
        2000 );
      ( "sync tx",
        cfg Config.Adios (fun c ->
            { c with Config.tx_mode = Config.Tx_sync_spin }),
        array,
        900.,
        3000 );
    ]

let slot_expected =
  [
    ( "Adios,array,858.8,320.6,0.6270,7.584,7.584,8.096,8.361,6.599,0.1059,891,0,890,0,0,0,0,0,1879,0,0,0,0,0,0,0,0,0,1121,1121,1121,1879,3,3000,0.0260,0.0175,0.0000,0.0013,0.0020,0.0000,0.0016,0.9516,0,0,0",
      37187 );
    ( "DiLOS,array,858.8,318.1,0.6300,7.584,7.648,10.688,11.200,6.663,0.1038,873,1,866,0,0,55,0,0,1887,0,0,0,0,0,0,0,0,0,1113,1113,1113,1887,3,3000,0.0258,0.0221,0.1389,0.0000,0.0020,0.0000,0.0016,0.8095,0,0,0",
      31457 );
    ( "DiLOS-P,array,858.5,305.6,0.6444,8.096,8.256,11.200,11.584,7.109,0.1012,853,0,837,853,0,50,0,0,1933,0,0,0,0,0,0,0,0,0,1067,1067,1067,1933,3,3000,0.0317,0.0211,0.1356,0.0000,0.0025,0.0000,0.0015,0.8076,0,0,0",
      35879 );
    ( "Hermit,array,858.0,223.4,0.7400,9.920,10.176,12.992,320.534,10.309,0.0771,639,0,615,0,0,32,0,0,2227,0,0,0,0,0,0,0,0,0,773,773,773,2227,3,3000,0.1043,0.0430,0.1014,0.0000,0.0014,0.0000,0.0011,0.7488,0,0,0",
      26511 );
    ( "Steal,array,858.8,320.6,0.6270,7.584,7.584,8.096,8.361,6.599,0.1059,891,0,890,0,0,0,0,0,1879,0,0,0,0,0,0,0,0,0,1121,1121,1121,1879,3,3000,0.0260,0.0175,0.0000,0.0013,0.0020,0.0000,0.0016,0.9516,0,0,0",
      52533 );
    ( "Adios,rocksdb-1024B,60.5,58.4,0.0348,8.384,57.600,70.144,74.240,18.467,0.1458,2977,19,8562,0,0,0,0,0,48,5588,4797,777,0,0,0,0,0,0,1452,1452,1452,48,4,1500,0.0259,0.0091,0.0000,0.0006,0.0004,0.0000,0.0003,0.9637,0,0,0",
      118181 );
    ( "Adios,array,276.8,19.2,0.8961,7.584,57.600,57.600,57.600,19.772,0.0158,171,0,100,0,0,0,0,0,1787,0,0,0,69,176,107,1,176,0,213,144,213,1787,2,2000,0.0020,0.0015,0.0000,0.0001,0.0002,0.0000,0.0001,0.9961,0,0,0",
      16522 );
    ( "Adios,array,858.8,321.9,0.6256,7.584,7.584,8.096,8.361,6.562,0.1052,886,0,883,0,0,0,0,0,1875,0,0,0,0,0,0,0,0,0,1125,1125,1125,1875,3,3000,0.0261,0.0174,0.1127,0.0013,0.0020,0.0000,0.0016,0.8389,0,0,0",
      36135 );
  ]

(* The write-back path: no golden evicts a dirty page, so pin one that
   does. SETs dirty memcached's pages, and at 10% local memory with
   2-deep QPs the reclaim QP fills, so the reclaimer waits out full QPs
   between WRITEs. Adios runs the proactive reclaimer, DiLOS the wakeup
   one (and spins on its synchronous TX). Rows and event counts were
   recorded when every loop still ran on an effect-handler process. *)
let writeback_cases =
  [
    ( Config.Adios,
      Adios_mem.Reclaimer.Proactive,
      "Adios,memcached-128B,304.8,304.8,0.0000,12.352,17.536,28.288,52.992,12.540,0.2534,3994,20,3990,0,7,10,3726,0,0,0,0,0,0,0,0,0,0,0,2000,2000,2000,0,13,2000,0.0129,0.0419,0.0000,0.0030,0.0019,0.0000,0.0015,0.9387,0,0,0",
      83792 );
    ( Config.Dilos,
      Adios_mem.Reclaimer.Wakeup,
      "DiLOS,memcached-128B,304.8,304.8,0.0000,13.248,20.352,33.536,60.672,14.058,0.2519,3970,25,3966,0,0,1091,11035,0,0,0,0,0,0,0,0,0,0,0,2000,2000,2000,0,14,2000,0.0129,0.0852,0.3549,0.0000,0.0019,0.0000,0.0015,0.5436,0,0,0",
      78192 );
  ]

let test_writeback_stalls () =
  List.iter
    (fun (sys, reclaim, row, events) ->
      let cfg =
        { (Config.default sys) with Config.local_ratio = 0.1; qp_depth = 2; reclaim }
      in
      let app = Adios_apps.Memcached.app ~keys:20_000 ~set_fraction:0.5 () in
      let r = Runner.run cfg app ~offered_krps:300. ~requests:2000 () in
      let name = Config.system_name sys in
      check_bool (name ^ ": write-backs stalled") true
        (r.Runner.writeback_stalls > 0);
      check Alcotest.string (name ^ " row") row (Adios_core.Export.csv_row r);
      check_int (name ^ " sim_events") events r.Runner.sim_events)
    writeback_cases

let test_slot_reuse () =
  List.iter2
    (fun (name, cfg, app, load, requests) (row, events) ->
      let r = Runner.run cfg (app ()) ~offered_krps:load ~requests () in
      check_bool (name ^ ": every admission reuses a slot") true
        (r.Runner.admitted > r.Runner.buffer_hwm);
      check Alcotest.string (name ^ " row") row (Adios_core.Export.csv_row r);
      check_int (name ^ " sim_events") events r.Runner.sim_events)
    slot_cases slot_expected

let () =
  Alcotest.run "system"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "request conservation" `Quick test_conservation;
          Alcotest.test_case "no drops at low load" `Quick
            test_no_drops_at_low_load;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_results;
        ] );
      ( "paper orderings",
        [
          Alcotest.test_case "adios beats dilos at saturation" `Slow
            test_adios_beats_dilos_at_saturation;
          Alcotest.test_case "adios tail at knee" `Slow
            test_adios_tail_beats_dilos_at_knee;
          Alcotest.test_case "dilos wins at 100% locality" `Quick
            test_dilos_wins_at_full_locality;
          Alcotest.test_case "hermit kernel tail" `Quick
            test_hermit_worse_than_dilos;
          Alcotest.test_case "dilos-p preempts" `Quick test_dilos_p_preempts;
          Alcotest.test_case "pf-aware vs rr" `Slow test_pf_aware_vs_rr;
          Alcotest.test_case "partitioned HOL blocking" `Slow
            test_partitioned_hol_blocking;
          Alcotest.test_case "stealing beats partitioned" `Slow
            test_work_stealing_beats_partitioned;
          Alcotest.test_case "polling delegation" `Slow
            test_polling_delegation_helps;
        ] );
      ( "edge paths",
        [
          Alcotest.test_case "queue drops" `Quick test_queue_drop_path;
          Alcotest.test_case "buffer drops" `Quick test_buffer_drop_path;
          Alcotest.test_case "qp stalls" `Quick test_qp_stall_path;
          Alcotest.test_case "wakeup reclaimer" `Quick
            test_wakeup_reclaimer_works;
          Alcotest.test_case "fault coalescing" `Quick test_fault_coalescing;
          Alcotest.test_case "degenerate runs rejected" `Quick
            test_rejects_degenerate_runs;
          Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
          Alcotest.test_case "write-back stalls" `Quick test_writeback_stalls;
        ] );
      ("dispatch", [ QCheck_alcotest.to_alcotest prop_dispatch_order ]);
      ( "breakdown",
        [
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "memcached SET mix" `Quick
            test_memcached_set_mix_writes_back;
          Alcotest.test_case "recorded" `Quick test_breakdown_recorded;
          Alcotest.test_case "adios has no tx wait" `Quick
            test_adios_breakdown_has_no_tx_wait;
        ] );
    ]
