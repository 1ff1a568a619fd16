(** Per-CPU time-in-state accounting.

    The paper's headline argument is about where worker cycles go:
    busy-wait handlers burn them spinning while Adios converts the same
    cycles into useful work (PAPER.md section 2, Fig. 2). This module
    measures exactly that. Each simulated CPU (the workers, plus one
    slot for the dispatcher) is at every instant in exactly one
    {!state}; {!switch} moves it, and the elapsed span is added to the
    cycles of the state it just left and, once {!register_metrics} has
    exported them, recorded as an episode length in that state's HDR
    histogram.

    Because the state function is total and piecewise-constant, the
    per-CPU integrals partition the run: for every CPU the state cycles
    sum exactly to the simulated duration — no double-count, no gap.
    That identity is re-checked from the outside by a qcheck property
    and a sweep oracle.

    The accountant only reads the simulation clock; it never schedules
    events, blocks, or consults the RNG, so enabling it cannot perturb
    a run (the same guarantee the trace sink gives). *)

type state =
  | App_compute  (** application handler cycles (incl. preempt probes) *)
  | Pf_software  (** page-fault software path: fault entry, map, frame
                     and QP stalls on the yield path, prefetch issue *)
  | Busy_wait  (** spinning on an in-flight fetch or a sync TX CQE *)
  | Cq_poll  (** polling the ready queue / CQ before switching back in *)
  | Ctx_switch  (** unithread creation and context switches *)
  | Dispatch  (** dispatcher work: assign, recycle, steal scans *)
  | Tx  (** posting the reply *)
  | Idle  (** parked on the gate with nothing to run *)

val states : state list
(** All states, in a fixed order (the order of the type). *)

val state_count : int

val state_index : state -> int
(** Position of a state in {!states}. *)

val state_name : state -> string
(** Lower-snake name as exposed in metric labels and CSV columns
    (["app_compute"], ["busy_wait"], ...). *)

type t

val create : Adios_engine.Sim.t -> cpus:int -> t
(** Accountant for [cpus] CPUs, all starting in {!Idle} at the current
    simulated time. By convention the workers occupy slots
    [0 .. workers-1] and the dispatcher the last slot. *)

val cpus : t -> int

val switch : t -> cpu:int -> state -> unit
(** Move [cpu] to a new state at the current simulated time. The span
    since the previous switch accrues to the state being left and, when
    non-empty and the histograms are registered, is recorded as one
    episode of that state. Switching to the current state is a no-op
    (episodes are not split). *)

(** Plain-data view of the accountant: marshals across the forked sweep
    workers and survives the simulation it was taken from. *)
type snapshot = {
  duration : int;  (** cycles from creation to the snapshot *)
  cpus : int;
  cycles : int array array;
      (** [cycles.(cpu).(state_index st)]: total cycles [cpu] spent in
          [st]; rows sum to [duration] exactly *)
}

val snapshot : t -> snapshot
(** Non-destructive: the accountant keeps running. *)

val state_cycles : snapshot -> ?cpus:int -> state -> int
(** Total cycles in a state summed over the first [cpus] slots
    (default: all). Pass the worker count to exclude the dispatcher. *)

val share : snapshot -> ?cpus:int -> state -> float
(** [state_cycles] as a fraction of the summed duration of the first
    [cpus] slots; 0 for an empty window. *)

val register_metrics :
  t -> Registry.t -> labels:(string * string) list -> unit
(** Register the live per-(cpu, state) cycle counters
    ([adios_cpu_state_cycles_total{cpu=...,state=...}]) and the
    per-state episode histograms merged across CPUs
    ([adios_cpu_state_episode_cycles{state=...}]). The worker slots are
    labelled by index, the last slot ["dispatcher"]. Episodes are
    recorded from here on: nothing else reads them, so an accountant no
    registry exports records none.
    @raise Invalid_argument when a switch has already closed an episode
    or left a CPU outside [Idle] *)
