(** Multi-memory-node topology: placement, replicated writes, failover.

    A cluster is [nodes] independent memory nodes, each with its own
    {!Adios_rdma.Memnode.t}, its own pair of directed links and its own
    NIC (so one node's congestion or death never serializes behind
    another's). Placement is striped: page [p]'s primary is node
    [p mod nodes], and its [replication - 1] replicas are the nodes
    after it (mod [nodes]):

    - fetches go to the first {e alive} node in the page's replica list
      (the primary when healthy — a {e failover} when not);
    - write-backs fan out to every alive replica, keeping all copies
      coherent;
    - a seeded crash schedule kills nodes mid-run ({!Adios_rdma.Nic.fail}
      — in-flight and future completions are swallowed, the host
      recovers via its timeout/retry protocol), after which a paced
      background task re-replicates the dead node's pages onto spares,
      competing with demand traffic for link bandwidth.

    Everything is deterministic: placement is pure arithmetic, victim
    selection draws from a private seeded RNG only inside the scheduled
    crash callbacks, and a default config (1 node, R = 1, no crashes)
    schedules nothing and draws nothing — byte-identical to the
    single-node system. *)

module Memnode = Adios_rdma.Memnode
module Link = Adios_rdma.Link
module Nic = Adios_rdma.Nic

type config = {
  nodes : int;  (** memory nodes (clamped to >= 1) *)
  replication : int;  (** copies per page (clamped to [1, nodes]) *)
  crashes : int;  (** nodes to kill, one per [crash_at] period *)
  crash_at : Adios_engine.Clock.cycles;
      (** first crash time; the i-th at [(i+1) * this] *)
}

val default : config
(** 1 node, R = 1, no crashes: the single-node system. *)

val enabled : config -> bool
(** Anything beyond the single-node default? *)

val normalize : config -> config
(** Clamp to the documented ranges ([nodes >= 1],
    [1 <= replication <= nodes], [crashes >= 0]). *)

type node = {
  id : int;
  memnode : Memnode.t;
  rx_link : Link.t;  (** fetch direction (node to compute) *)
  tx_link : Link.t;  (** write-back direction *)
  nic : int Nic.t;
  mutable alive : bool;
  mutable repl_qp : int Nic.qp option;
      (** lazily created QP for background re-replication traffic; its
          WRs carry tokens the cluster maps back to each leg's next
          step *)
}

type t

val create :
  ?trace:Adios_trace.Sink.t ->
  ?fault:Adios_fault.Injector.t ->
  Adios_engine.Sim.t ->
  config ->
  pages:int ->
  page_size:int ->
  gbps:float ->
  wire_overhead:float ->
  wqe_overhead_cycles:int ->
  base_latency_cycles:int ->
  qp_depth:int ->
  throttle:float ->
  rereplicate_gap_cycles:int ->
  seed:int ->
  t
(** Build the node array. Each node registers exactly the bytes of the
    pages it hosts (primary or replica) plus headroom; [throttle] > 0
    throttles every node (the fail-slow knob, see
    {!Adios_fault.Injector.config}). Creation schedules no events,
    spawns no processes and draws no RNG — {!start} arms the crash
    schedule. *)

val start : t -> unit
(** Arm the crash schedule. A no-op (zero [Sim.schedule] calls) when
    the config has no crashes. *)

val config : t -> config
(** The normalized config this cluster was built with. *)

val nodes : t -> node array
val node_count : t -> int
val node_alive : t -> int -> bool

val primary : t -> page:int -> int
(** The page's home node, [page mod nodes] (ignores overrides and
    liveness — this is the directory, not the route). *)

val replicas : t -> page:int -> int list
(** Current replica list, primary first — reflects re-replication
    overrides. *)

val route_read : t -> page:int -> int
(** Node to fetch the page from: the first alive node in its replica
    list. When every replica is dead, returns the (dead) head of the
    list: the post goes through, the completion is swallowed, and the
    host's timeout/retry path surfaces the error — callers should count
    it via {!note_dead_read}. Allocates nothing: a loop over the
    placement successors, or over the rewritten list after
    re-replication. *)

val current_primary : t -> page:int -> int
(** Head of the page's current replica list: {!primary}, or the spare
    that replaced it after re-replication. A read {!route_read} sends
    elsewhere is a failover. *)

val write_targets : t -> page:int -> int list
(** Alive replicas a write-back must land on. Empty when every replica
    is dead (callers should count via {!note_lost_write} and drop). *)

val total_rx_bytes : t -> int
(** Sum of fetch-direction link bytes across all nodes. *)

(** {2 Counters}

    [note_*] are called by the compute-node system at routing decisions
    (the cluster sees posts, not intents); the rest accumulate
    internally. *)

val note_failover : t -> unit
val note_dead_read : t -> unit
val note_lost_write : t -> unit
val nodes_failed : t -> int
val failovers : t -> int
val rereplicated : t -> int
val lost_writes : t -> int
val dead_reads : t -> int

val rereplication_backlog : t -> int
(** Pages still awaiting background re-replication. *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Cluster-level counters plus per-node series (reads / writes / bytes
    served / liveness / NIC counters) under an added ["node"] label. *)
