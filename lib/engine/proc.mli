(** Cooperative simulated processes over OCaml effect handlers.

    A process is ordinary OCaml code that can block in virtual time
    ({!wait}) or until an event ({!suspend}); blocking is implemented by
    capturing the continuation and re-scheduling it on the {!Sim} event
    heap, so processes compose with plain event callbacks.

    This is the same mechanism Adios' unithreads use: the page-fault
    handler suspends the faulting computation and the worker resumes it
    when the RDMA completion arrives, all within one "address space"
    (here: one OCaml heap, no OS threads). *)

val spawn : Sim.t -> (unit -> unit) -> unit
(** [spawn sim body] starts [body] as a process at the current time.
    Exceptions escaping [body] abort the simulation run. *)

val wait : Clock.cycles -> unit
(** Block the calling process for a virtual duration. Must be called from
    process context. [wait 0] yields through the event loop. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and hands a one-shot
    [resume] thunk to [register]. Calling [resume] (from any event
    context) re-schedules the process at the then-current time. Resuming
    twice raises [Failure]. *)

(** Binary wakeup gate: a lost-wakeup-safe "sleep until poked" primitive
    used by the dispatcher and workers when they go idle.

    A gate parks its process with an effect value made once per gate,
    and a signal schedules the parked process's own wake-up, made once
    per process: a round trip allocates only the continuation the
    runtime captures. *)
module Gate : sig
  type t

  val create : Sim.t -> t
  (** Fresh gate with no pending signal. *)

  val await : t -> unit
  (** Block until the gate is signalled; consumes a pending signal
      immediately if one arrived while the process was running. At most
      one process may wait on a gate at a time.
      @raise Failure if another process is already waiting on it. *)

  val signal : t -> unit
  (** Wake the waiter, or remember the signal if nobody waits yet.
      Multiple signals before an [await] coalesce into one. The waiter
      resumes through one event scheduled at the current time, like a
      {!suspend}'s [resume]. *)
end
