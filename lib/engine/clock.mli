(** Simulated time.

    The simulation clock counts CPU cycles of the paper's 2.0 GHz Xeon
    Gold 6330 compute node, so 1 us = 2000 cycles and the breakdown plots
    of Figs. 2(c)/7(c) can be read directly in cycles as in the paper. *)

type cycles = int
(** A duration or an absolute simulated timestamp, in cycles. *)

val cycles_per_sec : int
(** Clock frequency of the modelled compute node (2.0 GHz). *)

val cycles_per_us : int
(** Cycles in one microsecond (2000). *)

val of_us : float -> cycles
(** [of_us t] is [t] microseconds expressed in cycles (rounded). *)

val of_ns : float -> cycles
(** [of_ns t] is [t] nanoseconds expressed in cycles (rounded). *)

val of_sec : float -> cycles
(** [of_sec t] is [t] seconds expressed in cycles (rounded). *)

val to_us : cycles -> float
(** [to_us c] converts a cycle count to microseconds. *)

val to_ns : cycles -> float
(** [to_ns c] converts a cycle count to nanoseconds. *)

val to_sec : cycles -> float
(** [to_sec c] converts a cycle count to seconds. *)
