(** Suspendable request computation — the heart of the unithread.

    A task wraps the application code handling one request. Running it
    executes the body on its own fiber until the body finishes or calls
    {!suspend} (the yield-based page-fault handler does, right after
    posting the RDMA READ). A suspended task holds its continuation —
    the analogue of the 80-byte register context on the universal
    stack — and {!run} resumes it in place.

    The task is also the one handler of {!Adios_engine.Proc}'s effects.
    A [Proc.wait] or [Proc.suspend] in the body parks the task's own
    continuation and schedules (or registers) its own wake-up on the
    task's {!Adios_engine.Sim}; the event that was running the task
    simply ends. So a task's compute time blocks exactly the caller of
    {!run}, a worker in the system, whose next step is the [host]
    callback that receives the outcome. *)

type t

type outcome =
  | Finished  (** body returned; the task cannot run again *)
  | Suspended  (** body called {!suspend}; {!run} will resume it *)

val create : Adios_engine.Sim.t -> (unit -> unit) -> t
(** Task around a request-handler body whose waits run on [sim]. The
    body runs only inside {!run}. The task's effect handler and wake-up
    are made here, once, so running, waiting or suspending builds
    neither. *)

val run : t -> (outcome -> unit) -> unit
(** [run t host] starts or resumes the task. The body runs until it
    finishes or calls {!suspend}, and the outcome goes to [host]: at
    once, before [run] returns, if the body did not block; otherwise
    from the event that resumed it last. [host] is the task's until
    the outcome, so a steal can move a suspended task to another
    worker.
    @raise Invalid_argument if the task already finished or is running
    (blocked in a wait or suspension included). *)

val rearm : t -> unit
(** Make a finished (or fresh) task fresh again: the next {!run} starts
    its body from the top, with {!suspensions} back at 0. One task
    serves every request of a buffer this way, the way Adios reuses a
    buffer's context and stack.
    @raise Invalid_argument if the task is running or suspended. *)

val suspend : unit -> unit
(** Yield from inside a task body: the task's [host] gets
    [Suspended]. *)

val state : t -> [ `Fresh | `Running | `Suspended | `Finished ]
(** Lifecycle position; a task blocked in a wait or a
    [Proc.suspend] is [`Running]. *)

val suspensions : t -> int
(** How many times this task yielded (faults taken on the yield path). *)
