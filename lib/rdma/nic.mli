(** RDMA NIC engine.

    The NIC owns a set of queue pairs and two serialization engines, one
    per direction: READs consume the inbound (memory-node-to-compute)
    link, WRITEs and SENDs the outbound one. Each engine round-robins
    across QPs whose head work request needs it — the per-QP in-order /
    across-QP fair arbitration that makes RDMA queue lengths matter and
    gives the PF-aware dispatcher (Algorithm 1) its signal.

    Completion of a WR is delivered [base_latency] cycles after its
    serialization finishes (fabric propagation + remote DMA), onto the CQ
    chosen at post time.

    An optional fault injector sits on the completion path: it may delay
    a completion (latency spike / QP stall window) or lose it entirely.
    A lost completion still releases its QP slot and advances the
    in-order delivery sequence at the nominal delivery time — the
    fabric's bookkeeping survives — but no CQE reaches the host, which
    must recover via its own timeout.

    The datapath allocates nothing beyond the completion records
    themselves. A QP keeps its outstanding WRs in a ring whose
    capacity is [depth] rounded up to a power of two, so sequence [s]
    sits in slot [s land (capacity - 1)] without a division per WR.
    Admission still refuses at [depth], so the outstanding sequences
    are always one contiguous range at most [depth] long. Each engine
    serves its current WR through one service-end event made with the
    NIC, and each ring slot owns one delivery event made with the QP. A
    WR that finishes ahead of a predecessor sets its slot's parked flag
    and is delivered, in sequence order, when the predecessor lands. *)

type 'a t
type 'a qp

val create :
  ?trace:Adios_trace.Sink.t ->
  ?fault:Adios_fault.Injector.t ->
  ?wr_id_base:int ->
  Adios_engine.Sim.t ->
  rx_link:Link.t ->
  tx_link:Link.t ->
  wqe_overhead_cycles:int ->
  base_latency_cycles:int ->
  unit ->
  'a t
(** NIC over the two directed links. [wqe_overhead_cycles] is the
    per-work-request engine cost (doorbell + WQE fetch + DMA setup);
    [base_latency_cycles] the wire-to-completion delay. [trace]
    receives a [Wqe_post]/[Cqe] event pair per work request (the QP id
    in the worker field, the WR id in the page field); a completion the
    [fault] injector loses emits [Fault_injected] instead of [Cqe].
    [wr_id_base] (default 0) offsets this NIC's WR ids — a multi-NIC
    topology gives each NIC a disjoint base so WR ids stay unique in a
    shared trace (the checker treats them as global). *)

val create_qp : 'a t -> depth:int -> 'a qp
(** New QP accepting at most [depth] outstanding work requests, with
    its ring and the ring slots' delivery events. *)

val outstanding : 'a qp -> int
(** Work requests posted but not yet completed — the congestion signal
    read by PF-aware dispatching. *)

val post :
  'a qp ->
  opcode:Verbs.opcode ->
  bytes:int ->
  user:'a ->
  cq:'a Verbs.Cq.t ->
  bool
(** Post a work request; [false] if the QP is at [depth] (caller must
    back off, as Adios' dispatcher does when the NIC saturates). [user]
    comes back in the completion; an immediate payload (an int token,
    say) keeps the post and its CQE at the completion record's 7
    words. *)

val posted : 'a t -> int
(** Total WRs accepted since creation. *)

val completed : 'a t -> int
(** Total completions delivered since creation. *)

val read_bytes : 'a t -> int
(** Payload bytes fetched with READ work requests. *)

val dropped_completions : 'a t -> int
(** Completions the fault injector lost since creation, plus those
    swallowed after {!fail}. *)

val fail : 'a t -> unit
(** Kill the node behind this NIC: from now on every completion —
    including those already in flight — is lost ([Fault_injected]
    instead of [Cqe]), exactly like an injector drop. QP bookkeeping
    still advances, so the host recovers through its normal
    timeout/retry path. Irreversible. *)

val register_metrics :
  'a t ->
  Adios_obs.Registry.t ->
  labels:(string * string) list ->
  unit
(** Expose the NIC counters (posted / completed / READ bytes / dropped
    completions) through the metrics registry under [labels]. *)
