(** Deterministic pseudo-random generator (splitmix64) and the workload
    distributions used by the load generator and applications.

    Every experiment owns an explicit generator so that a given seed
    reproduces the exact same event sequence. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from a seed (any int). *)

val split : t -> t
(** [split g] derives an independent generator; [g] advances. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val uniform : t -> float
(** Uniform float in [\[0, 1)]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample; inter-arrival times of the
    open-loop Poisson load generator. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian sample (Box-Muller). *)

val discrete : t -> float array -> int
(** [discrete g weights] picks index [i] with probability proportional to
    [weights.(i)]. Requires a non-empty array with positive sum. *)

(** Zipfian sampler with precomputed normalization, for skewed key
    popularity experiments. *)
module Zipf : sig
  type sampler

  val create : n:int -> theta:float -> sampler
  (** [create ~n ~theta] prepares a sampler over [\[0, n)] with skew
      [theta] (0 = uniform; typical YCSB skew is 0.99). *)

  val sample : t -> sampler -> int
  (** Draw a rank in [\[0, n)]; smaller ranks are more popular. *)
end
