(** Typed trace events.

    One flat record per event so the ring-buffer sink stores them
    without boxing games: a simulation-cycle timestamp, the event kind,
    and up to three integer identifiers ([none] = -1 when absent).

    Conventions for the identifier fields:
    - [req]: request id ({!Event.reclaimer_actor} for reclaimer
      write-backs, [none] for events not tied to a request);
    - [worker]: worker id (NIC events carry the QP id here,
      {!Event.reclaimer_actor} marks the reclaimer);
    - [page]: page id for paging events; the NIC-level [Wqe_post]/[Cqe]
      pair carries the work-request id here instead. *)

type kind =
  | Req_enqueue  (** request admitted into the central queue *)
  | Req_drop_queue  (** dropped: central queue full *)
  | Req_drop_buffer  (** dropped: buffer pool exhausted *)
  | Dispatch  (** request handed to a worker *)
  | Run_begin  (** worker starts/resumes executing a request *)
  | Run_end  (** request finished, yielded or was preempted *)
  | Fault_begin  (** page fault taken (demand miss or in-flight wait) *)
  | Fault_end  (** faulting access may proceed *)
  | Coalesce  (** fault absorbed by concurrent work on the page *)
  | Rdma_issue  (** page-level RDMA op posted (fetch or write-back) *)
  | Rdma_complete  (** page-level RDMA op completed *)
  | Wqe_post  (** NIC accepted a work request (page = wr id) *)
  | Cqe  (** NIC delivered a completion (page = wr id) *)
  | Tx_submit  (** reply handed to the raw-Ethernet TX path *)
  | Tx_complete  (** reply TX completion reaped *)
  | Evict  (** page evicted from local DRAM *)
  | Reclaim_begin  (** reclaimer starts an eviction batch *)
  | Reclaim_end  (** reclaimer restored the high watermark *)
  | Preempt  (** DiLOS-P quantum expiry fired *)
  | Stall_qp  (** fault or write-back path paused on a full QP *)
  | Stall_frame  (** fault path parked waiting for a free frame *)
  | Stall_buffer  (** admission paused on buffer exhaustion *)
  | Fault_injected
      (** the fault fabric lost a completion (worker = QP id,
          page = WR id, like [Cqe]) *)
  | Fetch_timeout
      (** a page fetch outlived its timeout; [req] = [none] when the
          abandoned fetch was a prefetch nobody waited on *)
  | Fetch_retry  (** the timed-out fetch was reposted (bounded) *)
  | Req_error
      (** a request's fetch exhausted its retries; the request
          completes with an error reply instead of wedging *)
  | Node_failed
      (** a memory node crashed (page = node id); every fetch in flight
          on it will be recovered by failover or surfaced as an error *)
  | Failover
      (** a fetch was rerouted to a surviving replica (page = page id,
          worker = faulting worker) after its node failed *)
  | Rereplicated
      (** the background re-replication task restored a page's
          replication factor (page = page id) *)

type t = { ts : int; kind : kind; req : int; worker : int; page : int }

val none : int
(** Sentinel for an absent identifier. *)

val reclaimer_actor : int
(** Pseudo-id used in [req]/[worker] for reclaimer-initiated events. *)

val kind_name : kind -> string
