(** The exact, non-overlapping phase segmentation of a request's
    end-to-end latency: at any simulated instant between client TX and
    reply RX an admitted request is in exactly one phase, so per-request
    phase cycles sum exactly to end-to-end latency (the profiler's core
    invariant). DESIGN.md §11 lists which [System] functions enter
    each phase. *)

type t =
  | Req_wire  (** client→server wire + NIC RX, TX stamp to admission *)
  | Queue  (** central or per-CPU queue wait until a worker switches in *)
  | Ctx_switch  (** unithread create + switch-in (and kernel entry) *)
  | App_compute  (** the handler's own computation *)
  | Pf_software  (** page-fault software path: detect, map, prefetch *)
  | Busy_wait  (** a worker spinning on a fetch or TX completion *)
  | Fetch_wire  (** yielded with the page fetch in flight on the wire *)
  | Retry_backoff  (** fetch declared lost, waiting on the repost ladder *)
  | Failover_wait  (** fetch rerouted to a surviving replica *)
  | Steal_wait  (** resumed-ready wait until a worker picks it back up *)
  | Cq_poll  (** completion poll + switch-back on the resuming worker *)
  | Tx  (** reply post, TX completion handling and reply wire time *)

val count : int
(** Number of phases; the length of every per-request cycle array. *)

val all : t list
(** Every phase, in {!index} order (frozen: the CSV column layout and
    folded-stack frames are derived from it). *)

val index : t -> int
(** Dense index in [0, count): the slot in per-request cycle arrays. *)

val name : t -> string
(** snake_case identifier from which the phase CSV column
    ([<name>_cycles]), the OpenMetrics [phase] label value and the
    flamegraph frame are derived. *)

val label : t -> string
(** Human-readable label for report tables (e.g. ["queue wait"]). *)

val cpu_state : t -> Adios_obs.Accountant.state option
(** The state the request's worker is in while the request is in this
    phase; [None] for off-CPU phases (wires, queues, a yielded fetch).
    [Tx] covers the reply's wire time too, so the profiler's [Tx]
    cycles exceed the accountant's. *)
