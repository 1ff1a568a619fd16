(** Reference binary min-heap keyed by [(time, sequence)].

    This is the original boxed-entry event heap, kept verbatim under the
    reference scheduler that the differential property suite
    ([test_engine_diff]) replays random schedules on, against the
    wheel/heap scheduler inside {!Sim}; same-time entries pop in FIFO
    order. Do not optimise this module — its value is that it stays
    simple and obviously correct. *)

type 'a t
(** Heap of payloads ordered by ascending key. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of stored entries. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] inserts [v] with key [(time, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum entry, or [None] if empty. *)

val peek_time : 'a t -> int option
(** [peek_time h] is the key time of the minimum entry without removal. *)
