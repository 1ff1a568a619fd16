(** Binary wakeup gate for event-driven actors: a lost-wakeup-safe
    "sleep until poked" primitive the dispatcher and the workers use
    when they go idle.

    An actor parks by handing {!await} its continuation, a closure it
    made once; a signal schedules that continuation. Neither side
    allocates. *)

type t

val create : Sim.t -> t
(** Fresh gate with no pending signal and no waiter. *)

val await : t -> (unit -> unit) -> unit
(** [await t k] runs [k] at once, consuming the signal, if one arrived
    since the last [await]; otherwise [k] waits for the next {!signal}.
    At most one continuation may wait on a gate at a time.
    @raise Failure if a continuation is already waiting. *)

val signal : t -> unit
(** Wake the waiter, or remember the signal if nobody waits yet.
    Multiple signals before an [await] coalesce into one. The waiter
    runs from one event scheduled at the current time, so a wake-up
    keeps the place in the event order that a parked process's had. *)
