(** Trace-derived invariant checking.

    A post-run pass over the event stream that re-derives correctness
    properties of the simulated system {e from the trace alone}:

    - worker spans nest: per worker, [Run_begin]/[Run_end] strictly
      alternate and end the request they began, and every run has ended
      by the end of the trace — except one whose reply was submitted
      and whose TX completion is still pending, the wait of a worker
      under [Tx_sync_spin] when the run stops at the last reply;
    - every [Fault_begin] is closed by a [Fault_end] and, in between,
      saw either an [Rdma_complete] for its page or a [Coalesce] — no
      fault resolves out of thin air;
    - RDMA issues/completions and NIC WQEs/CQEs pair up (completions
      never outnumber issues; every page-level issue reached the NIC);
    - reply TX submissions are unique per request and precede their
      completions;
    - request conservation: every enqueued request produced exactly one
      reply (strict mode) — an errored request still replies, so
      conservation holds under fault injection;
    - fault recovery: a completion never lands on a page whose fetch the
      injector lost (nothing can complete a lost fetch before its
      timeout); every demand-fetch [Fetch_timeout] is followed by a
      [Fetch_retry] or a [Req_error] on the same (request, page); a
      [Fetch_retry] or [Req_error] never appears without its timeout
      (strict mode). Losses still awaiting their timeout when the trace
      ends are reported in [open_losses], not flagged;
    - cluster failover: [Failover] and [Rereplicated] never precede the
      first [Node_failed], and no node fails twice. Combined with the
      fault-recovery rules this proves every fetch in flight on a
      failed node is retried (on a replica, the only place a repost can
      land once the node is dead) or surfaced as a [Req_error].

    With [strict = false] — for traces truncated by the ring sink —
    pair-matching tolerates ends whose begins were evicted, and
    end-of-trace/conservation checks are skipped. *)

type report = {
  events : int;
  enqueued : int;  (** [Req_enqueue] count (admitted requests) *)
  dropped : int;  (** queue + buffer drops *)
  completed : int;  (** [Tx_submit] count (replies sent) *)
  tx_reaped : int;  (** [Tx_complete] count *)
  faults : int;
  coalesced : int;
  rdma_issued : int;
  rdma_completed : int;
  wqe_posted : int;
  cqe_delivered : int;
  evictions : int;
  preemptions : int;
  stalls : int;
  injected : int;  (** completions the fault fabric lost *)
  timeouts : int;  (** [Fetch_timeout] count (demand + prefetch) *)
  retries : int;  (** [Fetch_retry] count *)
  errored : int;  (** requests surfaced with an error reply *)
  nodes_failed : int;  (** [Node_failed] count (memnode crashes) *)
  failovers : int;
      (** fetches rerouted to a surviving replica; never legal before
          the first [Node_failed] (strict mode) *)
  rereplicated : int;
      (** pages whose replication factor was restored in the
          background; requires a prior [Node_failed] (strict mode) *)
  open_rdma : int;  (** issues outstanding at end of trace (allowed:
                        prefetches and write-backs may be in flight) *)
  open_tx : int;  (** TX completions pending at end of trace *)
  open_losses : int;
      (** injected losses whose recovery timeout had not fired when the
          trace ended (allowed: the run stops at the last reply) *)
  spans_dropped : int;
      (** spans the bounded ring sink overwrote before the check ran
          (echoed from the [spans_dropped] argument) *)
  errors : string list;  (** invariant violations, oldest first *)
  warnings : string list;
      (** non-fatal diagnostics — today, a truncation notice whenever
          [spans_dropped > 0], since attribution over a truncated trace
          is necessarily incomplete *)
}

val check : ?strict:bool -> ?spans_dropped:int -> Event.t list -> report
(** Scan a chronological event list. [strict] defaults to [true]; pass
    [false] for truncated traces. [spans_dropped] (default 0) is the
    ring sink's overflow count ({!Sink.dropped}); a nonzero value is
    surfaced as an explicit warning instead of letting spans silently
    vanish at capacity. *)

val ok : report -> bool
(** No violations found. *)

val pp : Format.formatter -> report -> unit
