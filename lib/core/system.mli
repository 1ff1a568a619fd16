(** The simulated compute node: dispatcher, workers, page-fault handling
    and reply transmission, configurable as any of the five systems under
    test (Adios / DiLOS / DiLOS-P / Hermit / Steal).

    Datapath (Figs. 1, 3, 5): client packets arrive through
    {!receive}, are admitted into the bounded single queue, dispatched to
    idle workers (Algorithm 1 or round-robin), and served inside
    unithreads whose paged memory accesses fault through the configured
    policy:

    - [Adios]: the fault posts a one-sided READ and the unithread yields;
      the worker resumes it when the completion is polled. Reply TX
      completions are delegated to the dispatcher's queue.
    - [Dilos]: the fault busy-waits on the completion; the reply TX is
      also synchronous.
    - [Dilos_p]: like [Dilos] plus 5 us cooperative preemption at the
      application's checkpoint probes.
    - [Hermit]: like [Dilos] plus kernel-path costs and kernel jitter.
    - [Steal]: Adios's yield-based fault protocol on per-CPU run
      queues — arrivals are sprayed round-robin, and an idle worker
      steals queued arrivals from siblings' local queues *and*
      blocked-then-resumed requests from their ready queues (re-homing
      the request onto its own QPs). The distributed-dispatch contrast
      to Algorithm 1's centralized queue. *)

type t

val create :
  ?trace:Adios_trace.Sink.t ->
  ?prof:Adios_prof.Profiler.t ->
  Adios_engine.Sim.t ->
  Config.t ->
  App.t ->
  arena:Adios_mem.Arena.t ->
  on_reply:(Request.t -> unit) ->
  t
(** Build the node around [arena], the app's dataset as the caller
    built it (the app's handles must point into it): pager warmed to
    steady state, NICs and links, buffer pool, reclaimer, and the
    dispatcher and workers, each an event-driven actor whose loop
    starts from one event at time 0. [on_reply] fires at the load generator when a
    reply packet lands (its hardware RX timestamp is [Request.done_at]).

    @raise Invalid_argument if [arena] is not [app]'s size.

    [trace] (default {!Adios_trace.Sink.null}, which records nothing and
    costs one branch per probe) receives the full span stream: request
    admission/dispatch/run, fault and RDMA intervals, TX, reclaim and
    stall events. Recording never blocks or consults the RNG, so enabling
    it does not perturb the simulation.

    [prof] (off by default) attaches critical-path attribution to every
    admitted request: the probe that switches a worker's accountant
    state for a request also moves the request's phase, decomposing its
    end-to-end latency into the exact {!Adios_prof.Phase} segmentation.
    Like the trace sink and the accountant, the probes are
    perturbation-free — the caller finalizes each request from
    [on_reply]. *)

val dispatch_order :
  Config.dispatch -> rr_cursor:int -> load:int array -> order:int array -> int
(** Algorithm 1's visiting order over the [n = Array.length load]
    workers. [load.(w)] is worker [w]'s outstanding page fetches, or
    negative when [w] is busy or already assigned and so not a
    candidate. Writes the candidates' ids to [order] (length at least
    [n]) and returns how many there are: by ascending load under
    [Pf_aware], by distance from [rr_cursor] under [Round_robin], and
    in id order under the policies that never dispatch from the idle
    order; equal keys keep id order. The dispatcher calls it with
    arrays it owns, so it allocates nothing. *)

val receive : t -> rx_at:int -> Request.t -> unit
(** Deliver a client request packet (wired to the inbound raw-Ethernet
    channel by the runner). *)

val counter : t -> Counter.t -> int
(** Current value of one counter. *)

val drops : t -> int
(** [Drops_queue + Drops_buffer]: every arrival rejected so far. A
    direct read, cheap enough for a check after every simulator
    event. *)

val faults_injected : t -> int
(** Completions suppressed or delayed by the fault injector so far
    (0 on a clean fabric). *)

val reclaimer : t -> Adios_mem.Reclaimer.t
val buffers : t -> Adios_unithread.Buffer_pool.t

val cluster : t -> Adios_cluster.Cluster.t
(** The memory-node topology: placement directory, per-node links and
    NICs, failover and re-replication state. *)

val prefetch_stats : t -> Adios_mem.Prefetcher.stats
(** Prefetch engine accounting (issued / useful / wasted). *)

val accountant : t -> Adios_obs.Accountant.t
(** Per-CPU time-in-state accounting: slots [0 .. workers-1] are the
    workers, the last slot the dispatcher. Always on — the switches only
    settle integrators and cannot perturb the run. *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Register every {!Counter.t} (as [adios_sys_<name>_total], or
    [adios_sys_<name>] for a gauge), the occupancy gauges (central
    queue depth, ready backlog, busy workers, buffers in use), the NIC /
    pager / reclaimer metrics, the CPU-state accounting and, under a
    multi-node topology, the cluster metrics into [reg] under
    [labels]. *)
