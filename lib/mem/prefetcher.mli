(** Stride prefetching (Leap-style majority voting).

    DiLOS and the other busy-waiting systems overlap prefetch issue with
    the demand fetch (section 2.3); Adios can issue the same prefetches
    before yielding. The detector watches one request's page-fault
    history and reports a stride when a majority of the recent deltas
    agree (Boyer-Moore majority vote over a sliding window, as in Leap,
    ATC'20) — robust to the occasional pointer chase inside an otherwise
    sequential scan. *)

module Stride_detector : sig
  type t

  val create : unit -> t
  (** Detector over the last 8 fault deltas. *)

  val record : t -> int -> int option
  (** [record t page] notes a fault on [page] and returns [Some stride]
      when a majority stride (non-zero) is established, else [None]. *)

  val reset : t -> unit
  (** Forget history (request boundary). *)
end

type stats = {
  mutable issued : int;  (** prefetch fetches posted *)
  mutable useful : int;  (** prefetched pages later touched while present *)
  mutable wasted : int;  (** prefetched pages evicted untouched *)
}

val make_stats : unit -> stats
(** Zeroed accounting shared by a compute node's prefetch engine. *)
