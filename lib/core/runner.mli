(** Experiment runner: open-loop Poisson load generator wired to a
    {!System} instance, with warmup, measurement window and result
    extraction. This is the mutilate-like generator of section 4: it
    emulates many clients, stamps hardware TX/RX timestamps, and never
    throttles on outstanding requests (so overload turns into drops,
    exactly as in Figs. 2(d)/7(d)). *)

type result = {
  system : string;
  app : string;
  requests : int;  (** arrivals injected, warmup included *)
  offered_krps : float;  (** offered load over the measurement window *)
  achieved_krps : float;  (** completed replies over the window *)
  drop_fraction : float;  (** dropped / offered within the window *)
  e2e : Adios_stats.Summary.t;  (** end-to-end latency, all kinds *)
  kind_summaries : (string * Adios_stats.Summary.t) list;
      (** per-opcode-class summaries (e.g. GET vs SCAN) *)
  e2e_hist : Adios_stats.Histogram.t;  (** full distribution, for CDFs *)
  rdma_util : float;
      (** fetch-direction wire-byte utilization in [0,1] (Figs. 2e/7e) *)
  (* A field named after a {!Counter.t} holds that counter's final
     value (see {!Counter} for its meaning). *)
  faults : int;
  coalesced : int;
  evictions : int;
  preemptions : int;
  qp_stalls : int;
  frame_stalls : int;
  writeback_stalls : int;  (** reclaimer pauses on a full QP *)
  drops_queue : int;  (** arrivals rejected: central queue full *)
  drops_buffer : int;  (** arrivals rejected: buffer pool exhausted *)
  prefetches : int * int * int;  (** issued, useful, wasted *)
  admitted : int;  (** arrivals accepted into the central queue *)
  handled : int;  (** handler invocations (first dispatch per request) *)
  completed : int;
  dropped : int;
  buffer_hwm : int;  (** peak unithread buffers in use *)
  errored : int;
      (** replies carrying an error status (fetch retries exhausted);
          included in [completed] but excluded from latency statistics *)
  fetch_timeouts : int;  (** page fetches declared lost *)
  fetch_retries : int;  (** fetches reposted after a timeout *)
  retries_hwm : int;  (** most reposts any single fetch needed *)
  faults_injected : int;  (** completions dropped/delayed by the injector *)
  drops_qp : int;  (** always 0 (see {!Counter.Drops_qp}) *)
  steals : int;
      (** requests taken from sibling workers' local/ready queues
          (Work-Stealing dispatch and the Steal system; 0 elsewhere) *)
  spans_dropped : int;
      (** events evicted by the bounded trace ring ([Sink.dropped]; 0
          when tracing is off or the ring never overflowed) — nonzero
          means the recorded trace is truncated *)
  nodes : int;  (** memory nodes in the topology *)
  replication : int;  (** configured copies per page *)
  crashes : int;  (** scheduled node crashes *)
  nodes_failed : int;  (** nodes actually killed during the run *)
  failovers : int;  (** fetches rerouted to a surviving replica *)
  rereplicated : int;  (** pages whose replication factor was restored *)
  lost_writes : int;  (** write-backs dropped: every replica dead *)
  dead_reads : int;  (** fetches posted with every replica dead *)
  sim_events : int;  (** simulator events processed (bench denominator) *)
  clamped_schedules : int;
      (** past-deadline schedules clamped to [now] by the engine; a
          drift here means a latency model started producing negative
          delays *)
  cpu : Adios_obs.Accountant.snapshot;
      (** per-CPU time-in-state accounting over the whole run (workers
          first, dispatcher last); plain data, safe to marshal across
          sweep workers. {!Export.cpu_share_columns} derives the
          worker-cycle shares from it. *)
  prof : Adios_prof.Profiler.summary option;
      (** per-request critical-path attribution (phase segmentation,
          latency-band aggregation, top-K digest), present iff the run
          was started with [~profile:true]; plain data, marshal-safe *)
}

val run :
  Config.t ->
  App.t ->
  offered_krps:float ->
  requests:int ->
  ?image:App.image ->
  ?trace:Adios_trace.Sink.t ->
  ?metrics:Adios_obs.Registry.t ->
  ?snapshot:Adios_trace.Timeline.t ->
  ?sample_period:Adios_engine.Clock.cycles ->
  ?profile:bool ->
  unit ->
  result
(** [run cfg app ~offered_krps ~requests ()] builds a fresh simulated
    testbed, injects [requests] Poisson arrivals at the offered rate and
    returns measurements over the post-warmup window. The first
    [requests/10] requests are warmup, excluded from every statistic.
    The run stops at 30 simulated seconds at the latest, which bounds
    runaway runs.

    [image] is the dataset the run uses: [app] adopts its handles and
    the testbed's memory is its arena. It defaults to a fresh
    {!App.build_image} of [app]. The run writes into the image's arena,
    so a caller that runs several points on one image restores it
    between them ({!Adios_mem.Arena.rollback}).

    [trace] records the span stream of the whole run (see
    {!Adios_trace.Sink}); the default null sink records nothing and does
    not perturb the simulation.

    [metrics], if given, has the full metric set registered into it
    ({!System.register_metrics}) under a [system] label; read it after
    [run] returns (e.g. through {!Adios_obs.Openmetrics.render}).
    [snapshot], if given, gets every scalar metric as a series and is
    sampled every [sample_period] cycles (default 5 us), the first row
    one period into the run. The sampler, started only for a snapshot,
    emits no datapath events, so a snapshot only adds rows.
    For fetch-link use per tick, take the per-tick delta of
    [adios_nic_read_bytes_total] and scale it as [rdma_util] scales
    bytes (wire overhead over the link rate).
    @raise Invalid_argument if [sample_period <= 0], if [offered_krps]
    is not a positive finite rate, or if [requests <= 0].

    [profile] (default false) attaches the critical-path profiler: every
    admitted request's end-to-end latency is decomposed into the exact
    {!Adios_prof.Phase} segmentation and aggregated into [result.prof].
    Profiling is perturbation-free — the same seed yields byte-identical
    results with it on or off — and, when [metrics] is given, the
    [adios_req_phase_*] series are registered alongside the system's. *)
