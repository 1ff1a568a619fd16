(** Unified page table with CLOCK residency management.

    DiLOS/Adios consolidate all paging metadata into a single table so a
    fault resolves with one lookup; this module is that table. Each page
    is [Remote] (only on the memory node), [Inflight] (RDMA READ posted,
    frame reserved) or [Present] (cached in local DRAM). Local DRAM holds
    [capacity] frames; eviction uses CLOCK second-chance over the
    resident ring.

    Concurrent faults on one page coalesce through the waiter registry;
    fault handlers that find no free frame park on the frame-waiter queue
    until the reclaimer frees one (the out-of-memory stall of section
    3.3). *)

type t

type state = Remote | Inflight | Present

val create : pages:int -> capacity:int -> t
(** Table for [pages] pages, of which at most [capacity] are resident.
    All pages start [Remote]. *)

val attach_trace : t -> Adios_trace.Sink.t -> now:(unit -> int) -> unit
(** Route an [Evict] trace event through [sink] for every {!evict},
    timestamped with [now] (the pager itself has no clock). *)

val pages : t -> int
val capacity : t -> int

val state : t -> int -> state
(** Current state of a page. *)

val resident : t -> int
(** Pages currently [Present]. *)

val inflight : t -> int
(** Pages currently being fetched. *)

val free_frames : t -> int
(** Frames neither resident nor reserved by in-flight fetches. *)

val touch : t -> int -> unit
(** Set the CLOCK referenced bit (called on every access hit). *)

val mark_dirty : t -> int -> unit
(** Remember the page was written; eviction must write it back. *)

val is_dirty : t -> int -> bool

val start_fetch : t -> int -> unit
(** [Remote] -> [Inflight], reserving a frame.
    @raise Invalid_argument if the page is not [Remote] or no frame is free. *)

val complete_fetch : t -> int -> unit
(** [Inflight] -> [Present]; the page enters the CLOCK ring referenced. *)

val abort_fetch : t -> int -> unit
(** [Inflight] -> [Remote], releasing the reserved frame (wakes one
    frame waiter if any). Used when a fetch times out or its QP slot is
    rolled back: the caller is expected to drain {!take_waiters} itself
    so parked faults re-examine the page.
    @raise Invalid_argument if the page is not [Inflight]. *)

val add_waiter : t -> int -> (unit -> unit) -> unit
(** Park a fault on an [Inflight] page; resumed by {!take_waiters}'s
    caller after [complete_fetch]. *)

val take_waiters : t -> int -> (unit -> unit) list
(** Remove and return the waiters of a page (in arrival order). *)

val pick_victim : t -> int option
(** CLOCK scan: clear referenced bits until an unreferenced resident
    page is found. [None] if nothing is resident. Does not evict. *)

val evict : t -> int -> bool
(** [Present] -> [Remote], freeing the frame; returns whether the page
    was dirty (and clears the bit). Wakes one frame waiter if any.
    @raise Invalid_argument if the page is not [Present]. *)

val wait_frame : t -> (unit -> unit) -> unit
(** Park until a frame is freed by {!evict}. FIFO order. *)

val frame_waiters : t -> int
(** Faults currently stalled for lack of a free frame. *)

val prefill : t -> int list -> unit
(** Warm-start: mark the listed [Remote] pages [Present] directly
    (used to start experiments at steady state). *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Expose the residency gauges (resident / inflight / free frames /
    frame waiters) through the metrics registry under [labels]. *)
