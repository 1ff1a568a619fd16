(* Golden header-order test for lib/core/export.ml.

   Downstream consumers — the checked-in golden CSVs under test/golden/,
   microbench_sweep.csv, EXPERIMENTS.md column references, and any
   notebook that ever parsed an exported CSV — all address columns by
   name and position. Reordering, renaming or dropping a column silently
   corrupts them, so the exact list is frozen here. Appending a new
   column is allowed (extend this list and regenerate the goldens:
   `dune exec bin/adios_sweep.exe -- --regen-golden test/golden`). *)

module Export = Adios_core.Export

let golden_columns =
  [
    "system";
    "app";
    "offered_krps";
    "achieved_krps";
    "drop_fraction";
    "p50_us";
    "p90_us";
    "p99_us";
    "p999_us";
    "mean_us";
    "rdma_util";
    "faults";
    "coalesced";
    "evictions";
    "preemptions";
    "qp_stalls";
    "frame_stalls";
    "writeback_stalls";
    "drops_queue";
    "drops_buffer";
    "prefetch_issued";
    "prefetch_useful";
    "prefetch_wasted";
    "errored";
    "fetch_timeouts";
    "fetch_retries";
    "retries_hwm";
    "faults_injected";
    "drops_qp";
    "admitted";
    "handled";
    "completed";
    "dropped";
    "buffer_hwm";
    "requests";
    "cpu_app_share";
    "cpu_pf_sw_share";
    "cpu_busy_wait_share";
    "cpu_cq_poll_share";
    "cpu_ctx_switch_share";
    "cpu_dispatch_share";
    "cpu_tx_share";
    "cpu_idle_share";
    "clamped_schedules";
    "steals";
    "spans_dropped";
  ]

(* The tail-forensics dataset's layout (one row per latency band; see
   Export.phase_csv_rows): identity columns, the band population, then
   one cycle-total column per attribution phase in Phase.index order,
   each named [Phase.name p ^ "_cycles"]. This list freezes the names
   and order the golden -phases.csv files were written in. *)
let golden_phase_columns =
  [
    "system";
    "app";
    "band";
    "requests";
    "e2e_cycles";
    "req_wire_cycles";
    "queue_cycles";
    "ctx_switch_cycles";
    "app_compute_cycles";
    "pf_software_cycles";
    "busy_wait_cycles";
    "fetch_wire_cycles";
    "retry_backoff_cycles";
    "failover_wait_cycles";
    "steal_wait_cycles";
    "cq_poll_cycles";
    "tx_cycles";
  ]

(* The cluster-topology block appended to clustered datasets only
   (test/golden/cluster-reduced.csv); single-node goldens never carry
   these, which is what keeps them byte-identical across the cluster
   subsystem's introduction. *)
let golden_cluster_columns =
  [
    "nodes";
    "replication";
    "crashes";
    "nodes_failed";
    "failovers";
    "rereplicated";
    "lost_writes";
    "dead_reads";
    "sim_events";
  ]

let test_column_names () =
  Alcotest.check
    Alcotest.(list string)
    "exported CSV columns, in order" golden_columns Export.column_names

let test_cluster_column_names () =
  Alcotest.check
    Alcotest.(list string)
    "cluster CSV columns, in order" golden_cluster_columns
    Export.cluster_column_names

let test_csv_header () =
  Alcotest.check Alcotest.string "csv header line"
    (String.concat "," golden_columns)
    Export.csv_header

let test_phase_column_names () =
  Alcotest.check
    Alcotest.(list string)
    "phase-band CSV columns, in order" golden_phase_columns
    Export.phase_band_columns

let test_no_duplicate_columns () =
  let all = Export.column_names @ Export.cluster_column_names in
  let sorted = List.sort_uniq String.compare all in
  Alcotest.check Alcotest.int "no duplicate column names" (List.length all)
    (List.length sorted)

let () =
  Alcotest.run "export"
    [
      ( "header",
        [
          Alcotest.test_case "column names frozen" `Quick test_column_names;
          Alcotest.test_case "cluster column names frozen" `Quick
            test_cluster_column_names;
          Alcotest.test_case "header line" `Quick test_csv_header;
          Alcotest.test_case "phase-band column names frozen" `Quick
            test_phase_column_names;
          Alcotest.test_case "no duplicates" `Quick test_no_duplicate_columns;
        ] );
    ]
