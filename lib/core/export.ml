module Summary = Adios_stats.Summary
module Clock = Adios_engine.Clock
module Accountant = Adios_obs.Accountant
module Phase = Adios_prof.Phase
module Profiler = Adios_prof.Profiler

let cpu_share_columns =
  [
    ("cpu_app_share", Accountant.App_compute);
    ("cpu_pf_sw_share", Accountant.Pf_software);
    ("cpu_busy_wait_share", Accountant.Busy_wait);
    ("cpu_cq_poll_share", Accountant.Cq_poll);
    ("cpu_ctx_switch_share", Accountant.Ctx_switch);
    ("cpu_dispatch_share", Accountant.Dispatch);
    ("cpu_tx_share", Accountant.Tx);
    ("cpu_idle_share", Accountant.Idle);
  ]

(* Shares over the worker slots only: the dispatcher (the snapshot's
   last slot) is a separate CPU and would dilute the per-worker
   picture. *)
let cpu_share (r : Runner.result) st =
  let cpu = r.Runner.cpu in
  Accountant.share cpu ~cpus:(cpu.Accountant.cpus - 1) st

(* One list drives both the header and the rows, so the two can never
   drift out of arity. Columns are append-only: the goldens and the
   CSV readers address them by position. *)
let fields : (string * (Runner.result -> string)) list =
  let us v = Printf.sprintf "%.3f" (Clock.to_us v) in
  let prefetch pick r = string_of_int (pick r.Runner.prefetches) in
  [
    ("system", fun r -> r.Runner.system);
    ("app", fun r -> r.Runner.app);
    ("offered_krps", fun r -> Printf.sprintf "%.1f" r.Runner.offered_krps);
    ("achieved_krps", fun r -> Printf.sprintf "%.1f" r.Runner.achieved_krps);
    ("drop_fraction", fun r -> Printf.sprintf "%.4f" r.Runner.drop_fraction);
    ("p50_us", fun r -> us r.Runner.e2e.Summary.p50);
    ("p90_us", fun r -> us r.Runner.e2e.Summary.p90);
    ("p99_us", fun r -> us r.Runner.e2e.Summary.p99);
    ("p999_us", fun r -> us r.Runner.e2e.Summary.p999);
    ( "mean_us",
      fun r ->
        Printf.sprintf "%.3f"
          (r.Runner.e2e.Summary.mean /. float_of_int Clock.cycles_per_us) );
    ("rdma_util", fun r -> Printf.sprintf "%.4f" r.Runner.rdma_util);
    ("faults", fun r -> string_of_int r.Runner.faults);
    ("coalesced", fun r -> string_of_int r.Runner.coalesced);
    ("evictions", fun r -> string_of_int r.Runner.evictions);
    ("preemptions", fun r -> string_of_int r.Runner.preemptions);
    ("qp_stalls", fun r -> string_of_int r.Runner.qp_stalls);
    ("frame_stalls", fun r -> string_of_int r.Runner.frame_stalls);
    ("writeback_stalls", fun r -> string_of_int r.Runner.writeback_stalls);
    ("drops_queue", fun r -> string_of_int r.Runner.drops_queue);
    ("drops_buffer", fun r -> string_of_int r.Runner.drops_buffer);
    ("prefetch_issued", prefetch (fun (i, _, _) -> i));
    ("prefetch_useful", prefetch (fun (_, u, _) -> u));
    ("prefetch_wasted", prefetch (fun (_, _, w) -> w));
    ("errored", fun r -> string_of_int r.Runner.errored);
    ("fetch_timeouts", fun r -> string_of_int r.Runner.fetch_timeouts);
    ("fetch_retries", fun r -> string_of_int r.Runner.fetch_retries);
    ("retries_hwm", fun r -> string_of_int r.Runner.retries_hwm);
    ("faults_injected", fun r -> string_of_int r.Runner.faults_injected);
    ("drops_qp", fun r -> string_of_int r.Runner.drops_qp);
    ("admitted", fun r -> string_of_int r.Runner.admitted);
    ("handled", fun r -> string_of_int r.Runner.handled);
    ("completed", fun r -> string_of_int r.Runner.completed);
    ("dropped", fun r -> string_of_int r.Runner.dropped);
    ("buffer_hwm", fun r -> string_of_int r.Runner.buffer_hwm);
    ("requests", fun r -> string_of_int r.Runner.requests);
  ]
  @ List.map
      (fun (column, st) ->
        (column, fun r -> Printf.sprintf "%.4f" (cpu_share r st)))
      cpu_share_columns
  @ [
      ( "clamped_schedules",
        fun r -> string_of_int r.Runner.clamped_schedules );
      ("steals", fun r -> string_of_int r.Runner.steals);
      ("spans_dropped", fun r -> string_of_int r.Runner.spans_dropped);
    ]

let column_names = List.map fst fields
let csv_header = String.concat "," column_names
let csv_row r = String.concat "," (List.map (fun (_, f) -> f r) fields)

(* Cluster-topology columns live in their own list, appended only by
   datasets that opt in ([Dataset.of_run ~cluster:true]), so the
   default layout above stays the same for every other dataset. *)
let cluster_fields : (string * (Runner.result -> string)) list =
  [
    ("nodes", fun r -> string_of_int r.Runner.nodes);
    ("replication", fun r -> string_of_int r.Runner.replication);
    ("crashes", fun r -> string_of_int r.Runner.crashes);
    ("nodes_failed", fun r -> string_of_int r.Runner.nodes_failed);
    ("failovers", fun r -> string_of_int r.Runner.failovers);
    ("rereplicated", fun r -> string_of_int r.Runner.rereplicated);
    ("lost_writes", fun r -> string_of_int r.Runner.lost_writes);
    ("dead_reads", fun r -> string_of_int r.Runner.dead_reads);
    ("sim_events", fun r -> string_of_int r.Runner.sim_events);
  ]

let cluster_column_names = List.map fst cluster_fields

let cluster_csv_row r =
  String.concat "," (List.map (fun (_, f) -> f r) cluster_fields)

(* --- tail-forensics (phase attribution) CSV ------------------------------ *)

let phase_column p = Phase.name p ^ "_cycles"
let phase_column_names = List.map phase_column Phase.all

(* One row per latency band: identity, band population, total e2e
   cycles, then the per-phase totals (which sum exactly to [e2e_cycles]
   — the conservation oracle in lib/exp re-checks it from the CSV). *)
let phase_band_columns =
  [ "system"; "app"; "band"; "requests"; "e2e_cycles" ] @ phase_column_names

let phase_csv_rows (r : Runner.result) =
  match r.Runner.prof with
  | None -> []
  | Some s ->
    Array.to_list
      (Array.map
         (fun (b : Profiler.band_stats) ->
           [
             r.Runner.system;
             r.Runner.app;
             b.Profiler.band;
             string_of_int b.Profiler.requests;
             string_of_int b.Profiler.e2e_cycles;
           ]
           @ List.map
               (fun p ->
                 string_of_int b.Profiler.phase_cycles.(Phase.index p))
               Phase.all)
         s.Profiler.bands)
