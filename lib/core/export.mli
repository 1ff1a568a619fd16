(** Machine-readable result export: turn sweep results into CSV for
    plotting (gnuplot/pandas) or archival next to EXPERIMENTS.md. *)

val cpu_share_columns : (string * Adios_obs.Accountant.state) list
(** The eight worker-cycle-share columns of {!fields}, in order, each
    with the accountant state it measures. A cell is that state's share
    of the workers' cycles in [Runner.result.cpu], dispatcher
    excluded, so a row's shares sum to 1. *)

val fields : (string * (Runner.result -> string)) list
(** The column list: name paired with its formatter. {!csv_header} and
    {!csv_row} are both derived from this, so header and row arity
    always match. Append-only: goldens and CSV readers address columns
    by position. *)

val column_names : string list
(** Column names of {!fields}, in order; the single source of truth the
    sweep dataset layer and the golden header test build on. *)

val csv_header : string
(** Column names of {!csv_row}, comma-separated. *)

val csv_row : Runner.result -> string
(** One result as a CSV line (latencies in microseconds). *)

val cluster_fields : (string * (Runner.result -> string)) list
(** Cluster-topology columns (nodes / replication / crashes / failover
    counters / simulator event count), kept separate from {!fields} so
    the frozen default column layout — and every golden CSV built on it
    — stays byte-identical. Cluster-aware datasets append them. *)

val cluster_column_names : string list
val cluster_csv_row : Runner.result -> string

val phase_column : Adios_prof.Phase.t -> string
(** CSV column name carrying a phase's cycles:
    [Phase.name p ^ "_cycles"] (e.g. [busy_wait_cycles]). *)

val phase_column_names : string list
(** [phase_column] over {!Adios_prof.Phase.all}, in index order. *)

val phase_band_columns : string list
(** Header of the tail-forensics CSV: [system; app; band; requests;
    e2e_cycles] followed by {!phase_column_names}. Per band,
    the phase cycle cells sum exactly to [e2e_cycles]. *)

val phase_csv_rows : Runner.result -> string list list
(** One row per latency band ({!Adios_prof.Profiler.band_names} order)
    under {!phase_band_columns}; [[]] when the run did not profile. *)
