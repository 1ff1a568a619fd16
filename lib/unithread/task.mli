(** Suspendable request computation — the heart of the unithread.

    A task wraps the application code handling one request. Running it
    executes the body until it either finishes or calls {!suspend} (the
    yield-based page-fault handler does, right after posting the RDMA
    READ). A suspended task holds its continuation — the analogue of the
    80-byte register context on the universal stack — and {!run} resumes
    it in place.

    Tasks compose with {!Adios_engine.Proc}: effects the task does not
    handle (virtual-time waits) propagate to the enclosing worker
    process, so a task's compute time blocks exactly its worker. *)

type t

type outcome =
  | Finished  (** body returned; the task cannot run again *)
  | Suspended  (** body called {!suspend}; {!run} will resume it *)

val create : (unit -> unit) -> t
(** Task around a request-handler body. The body runs only inside
    {!run}. The task's effect handler is made here, once, so running
    or suspending it builds none. *)

val run : t -> outcome
(** Start or resume the task; returns at the body's next suspension
    point or completion.
    @raise Invalid_argument if the task already finished or is running. *)

val rearm : t -> unit
(** Make a finished (or fresh) task fresh again: the next {!run} starts
    its body from the top, with {!suspensions} back at 0. One task
    serves every request of a buffer this way, the way Adios reuses a
    buffer's context and stack.
    @raise Invalid_argument if the task is running or suspended. *)

val suspend : unit -> unit
(** Yield from inside a task body back to whoever called {!run}. *)

val state : t -> [ `Fresh | `Running | `Suspended | `Finished ]
(** Lifecycle position. *)

val suspensions : t -> int
(** How many times this task yielded (faults taken on the yield path). *)
