(** Streaming critical-path profiler: decomposes each admitted request's
    end-to-end latency into an exact, non-overlapping {!Phase}
    segmentation, then totals each phase's cycles per latency band
    (p0–p50, p50–p99, p99–p99.9, >p99.9) — so "what do tail requests
    spend their time on" is a first-class query.

    Invariant: for every finalized request, phase cycles sum exactly to
    end-to-end latency (reply RX − client TX). The probes guarantee it
    by telescoping — each switch closes the current segment at the
    switch instant — and {!finalize} re-checks it per request, counting
    failures into the summary's [violations].

    Probes are perturbation-free (they read [Sim.now] and mutate
    arrays; no events, no RNG): enabling profiling cannot change a
    run's results. All state is plain data, safe to Marshal across
    forked sweep workers. *)

type req
(** Per-request attribution state, held on [Request.t]. *)

type t
(** A profiler instance: one per run. *)

val create : unit -> t

val attach : t -> id:int -> tx_at:int -> now:int -> req
(** Open attribution for an admitted request: the [tx_at, now) wire+RX
    segment is charged to [Req_wire] and the request enters [Queue].
    Called once per admission. *)

val switch : req -> now:int -> Phase.t -> unit
(** Close the current segment at [now] and enter the given phase.
    No-op when the phase is unchanged or the request is finalized. *)

val finalize :
  t -> req -> done_at:int -> errored:bool -> measured:bool -> unit
(** Close the open segment at [done_at] (the reply's client RX stamp),
    verify the sum invariant, and fold the request into the aggregate.
    Only [measured] (post-warmup) non-errored requests enter the banded
    population; every request feeds the live metric counters. Probes
    arriving after finalization are no-ops (under [Tx_sync_spin] the
    reply can land while the worker still spins on the TX CQE). *)

(** {1 Aggregation} *)

val band_count : int
val band_names : string array
(** ["p0_p50"; "p50_p99"; "p99_p999"; "p999_max"] — latency bands by
    end-to-end percentile of the measured population. *)

type band_stats = {
  band : string;
  requests : int;
  e2e_cycles : int;  (** total end-to-end cycles over the band *)
  phase_cycles : int array;
      (** per-phase totals, {!Phase.index} order; sums to [e2e_cycles]
          exactly (the conservation oracle re-checks this per band) *)
}

type slow = { id : int; e2e : int; cycles : int array }

type summary = {
  profiled : int;  (** requests finalized (warmup + errors included) *)
  measured : int;  (** post-warmup non-errored: the banded population *)
  errored : int;
  violations : int;
      (** requests whose phase cycles failed to sum to end-to-end
          latency; 0 unless the probe placement itself is broken (CI
          gates on it) *)
  bands : band_stats array;  (** length {!band_count} *)
  slowest : slow array;  (** top-K requests by e2e, descending *)
}

val summary : t -> summary
(** Band thresholds are computed over the measured population at call
    time; [slowest] holds the top 32. Plain data, marshal-safe. *)

val folded : root:string -> summary -> string list
(** flamegraph.pl-style folded stacks, one
    ["root;band;phase cycles"] line per nonzero (band, phase). *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Register [adios_req_phase_cycles_total] (one series per phase,
    labelled [phase=<name>]), [adios_req_profiled_total] and
    [adios_req_phase_sum_violations_total] under [labels]. *)
