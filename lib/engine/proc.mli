(** Blocking in virtual time, for code that runs on a fiber.

    Request handlers are ordinary OCaml code that can block in virtual
    time ({!wait}) or until an event ({!suspend}). Each is an effect;
    the fiber that runs the code handles it by capturing its own
    continuation and re-scheduling it on the {!Sim} event set, so
    blocking code composes with plain event callbacks.

    One handler in the tree handles them: a request's unithread,
    [Adios_unithread.Task]. This is the same mechanism Adios' unithreads
    use: the page-fault handler suspends the faulting computation and
    the worker resumes it when the RDMA completion arrives, all within
    one "address space" (here: one OCaml heap, no OS threads). The
    dispatcher, the workers and the other loops that schedule
    unithreads are event callbacks and never block this way. *)

type _ Effect.t +=
  | Wait : Clock.cycles -> unit Effect.t  (** performed by {!wait} *)
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** performed by {!suspend} *)

val wait : Clock.cycles -> unit
(** Block the calling fiber for a virtual duration: its wake-up is one
    event [dt] cycles from now. [wait 0] yields through the event loop.
    @raise Effect.Unhandled outside a fiber. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling fiber and hands a one-shot
    [resume] thunk to [register]. Calling [resume] (from any event
    context) re-schedules the fiber at the then-current time, through
    one event. Resuming twice, or calling a [resume] kept from an
    earlier suspension, raises [Failure "Proc.suspend: double
    resume"]. *)
