(** Deterministic fault-injection fabric.

    A seeded anomaly source for the NIC/link/memnode path: it can lose
    READ completions, stretch completion latency with lognormal tail
    multipliers, stall individual QPs for a window, and (via the
    [throttle] knob, applied by the memory node / link layer) slow the
    remote memory node down. Every decision is drawn from the injector's
    own splitmix RNG, seeded from {!config.seed} and consulted in
    completion order — which is itself deterministic — so a given
    (workload seed, fault seed) pair replays byte-identically, with
    tracing on or off.

    The injector never touches the simulation RNG: with {!none} (or any
    all-zero config) the simulated system is bit-for-bit the system
    without an injector. *)

type config = {
  drop : float;  (** P(a READ completion is lost on the fabric) *)
  spike : float;
      (** P(a completion is delayed by a lognormal tail): the delay is
          [base_cycles * (exp |N(0, 1)| - 1)] *)
  stall : float;  (** P(a completion opens a stall window on its QP) *)
  stall_cycles : int;  (** length of a QP stall window *)
  throttle : float;
      (** remote memory node slowdown: every fetch-direction
          serialization is stretched by this fraction (0 = full speed).
          Consumed by {!Adios_rdma.Memnode} / {!Adios_rdma.Link}, not by
          the per-completion draw. *)
  seed : int;  (** fault-schedule seed, independent of the workload seed *)
}

val none : config
(** All probabilities and the throttle at zero: injects nothing. *)

val enabled : config -> bool
(** Some anomaly has non-zero probability (or the throttle is set). *)

type t

val create : config -> t
(** Fresh injector; identical configs produce identical schedules. *)

val config : t -> config

(** What to do with one completion. *)
type verdict =
  | Deliver  (** on time *)
  | Drop  (** the CQE never materializes; the initiator must recover *)
  | Delay of int  (** deliver late by this many cycles *)

val on_completion :
  t -> now:int -> is_read:bool -> qp:int -> base_cycles:int -> verdict
(** Draw the fate of a completion that would normally be delivered
    [base_cycles] after serialization. Only READs are ever dropped
    (one-sided WRITE losses surface as QP errors on real RC transport
    and are out of scope); spikes and stalls apply to every opcode. A
    stall window opened on QP [qp] delays every later completion of
    that QP until the window closes. *)

type stats = {
  mutable drops : int;  (** completions lost *)
  mutable spikes : int;  (** completions hit by a latency spike *)
  mutable stalls : int;  (** stall windows opened *)
}

val stats : t -> stats

val injected : t -> int
(** Total anomalies injected: drops + spikes + stalls. *)
