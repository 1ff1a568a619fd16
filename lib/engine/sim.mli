(** Discrete-event simulation core.

    The simulator owns a virtual clock (in {!Clock.cycles}) and a pending
    event set. Every state change in the modelled system happens inside an
    event callback; callbacks may schedule further events but never block.
    Request handlers, which do block, run on unithread fibers that
    handle {!Proc}'s effects by scheduling their own wake-ups.

    Internally events live in a pool of flat parallel arrays indexed by a
    single-rotation timer wheel of 2^14 cycles (8.2 us: NIC
    serialization, completion latency, software costs) plus a far-event
    heap for anything later (fetch timeouts, long load-generator gaps).
    The two heads are merged by [(time, seq)], which reproduces the
    exact pop order of the original single-heap scheduler — the
    differential suite in [test_engine_diff] checks this against
    [test/heap_reference.ml]. Steady-state scheduling performs no GC
    allocation. *)

type t
(** A simulation instance. *)

val create : unit -> t
(** Fresh simulator with the clock at 0 and no pending events. *)

val now : t -> Clock.cycles
(** Current virtual time. *)

val schedule : t -> delay:Clock.cycles -> (unit -> unit) -> unit
(** [schedule sim ~delay f] runs [f] at [now sim + delay]. Negative delays
    are clamped to zero (counted in {!clamped_schedules}). Events at equal
    times fire in scheduling order. *)

val schedule_at : t -> Clock.cycles -> (unit -> unit) -> unit
(** [schedule_at sim t f] runs [f] at absolute time [t]. A [t] in the past
    is clamped to [now] and counted in {!clamped_schedules}. *)

type timer
(** Cancellation token for an event scheduled with {!timer_at} /
    {!timer_after}. Tokens are plain immediates (no allocation) and stay
    valid forever: once the timer has fired or been cancelled, further
    {!cancel} calls are no-ops — the token's generation stamp defeats
    pool-slot reuse (ABA). *)

val timer_at : t -> Clock.cycles -> (unit -> unit) -> timer
(** [timer_at sim t f] is {!schedule_at} returning a token that can later
    be cancelled in O(1). *)

val timer_after : t -> delay:Clock.cycles -> (unit -> unit) -> timer
(** [timer_after sim ~delay f] is {!schedule} returning a cancellation
    token. *)

val cancel : t -> timer -> unit
(** [cancel sim token] cancels a pending timer in O(1): the callback never
    runs, the event never counts in {!events_processed}, and [now] never
    advances to its deadline on its account. Cancelling a timer that has
    already fired or been cancelled is a no-op. *)

val timer_pending : t -> timer -> bool
(** [timer_pending sim token] is [true] iff the timer has neither fired
    nor been cancelled. *)

val run : t -> unit
(** Drain the pending events completely. *)

val run_until : t -> Clock.cycles -> unit
(** Process events with timestamp [<= limit] (an event at exactly [limit]
    fires); afterwards [now] is [limit] if the simulation had not already
    advanced past it. *)

val step : t -> bool
(** Process one event; [false] if nothing is pending. *)

val pending : t -> int
(** Number of events still queued (cancelled timers excluded). *)

val events_processed : t -> int
(** Total events executed so far (a determinism fingerprint for tests). *)

val clamped_schedules : t -> int
(** Number of [schedule_at]/[timer_at] calls whose target time lay in the
    past and was clamped to [now] (includes negative-delay [schedule]s). *)
