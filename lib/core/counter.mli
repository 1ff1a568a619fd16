(** The event counters {!System} accumulates, declared once.

    A counter's [name] (see {!describe}) is its CSV column
    ({!Export.fields}), its {!Runner.result} field and the stem of its
    OpenMetrics family ([adios_sys_<name>], plus [_total] unless it is
    a gauge), so those expositions cannot drift apart. *)

type t =
  | Admitted  (** requests admitted into the central queue *)
  | Drops_queue  (** arrivals rejected: central queue full *)
  | Drops_buffer  (** arrivals rejected: buffer pool exhausted *)
  | Handled  (** request handlers run to completion *)
  | Errored
      (** handlers aborted by fetch-retry exhaustion; their replies carry
          an error status but still count toward conservation *)
  | Faults  (** page faults taken (fetches issued) *)
  | Coalesced  (** faults absorbed by an in-flight fetch *)
  | Qp_stalls  (** fault handler pauses on a full QP *)
  | Preemptions  (** DiLOS-P quantum expirations *)
  | Writeback_stalls  (** reclaimer pauses on a full QP *)
  | Frame_stalls
      (** faults that found no free frame and had to wait for the
          reclaimer — the out-of-memory stalls section 3.3 eliminates *)
  | Fetch_timeouts
      (** page fetches declared lost after [Config.fetch_timeout] cycles
          without a completion *)
  | Fetch_retries  (** fetches reposted after a timeout *)
  | Retries_hwm
      (** most reposts any single fetch needed (bounded by
          [Config.fetch_retries]); a high-water mark, not a count *)
  | Drops_qp
      (** prefetch posts refused by a full QP. Always 0: a prefetch is
          posted only with QP slots to spare. Kept for its CSV column and
          metric family. *)
  | Steals
      (** requests taken from a sibling worker's queue: local-queue
          steals under [Work_stealing] dispatch, plus ready-queue steals
          of blocked-then-resumed requests under the [Steal] system *)

val count : int
(** Number of counters; the length of {!System}'s count array. *)

val all : t list
(** Every counter, in {!index} order (also the metric registration
    order). *)

val index : t -> int
(** Dense index in [0, count). *)

type desc = {
  name : string;  (** lower-snake identifier *)
  help : string;  (** OpenMetrics [# HELP] text *)
  gauge : bool;
      (** exposed as a gauge rather than a [_total] counter (only
          {!Retries_hwm}) *)
}

val describe : t -> desc
