(** Log-bucketed latency histogram (HdrHistogram-style).

    Values are non-negative integers (cycles). Buckets below 64 are exact;
    above that each power-of-two range is split into 64 sub-buckets, so
    any reported quantile is within ~1.6% relative error of the exact
    sample quantile. Recording is O(1) and allocation-free after warmup:
    a value's bucket comes from its highest set bit, found by three
    halvings and a byte table rather than a loop over its bits. *)

type t

val create : unit -> t
(** Empty histogram. *)

val record : t -> int -> unit
(** [record h v] adds observation [v] (clamped below at 0). *)

val record_n : t -> int -> int -> unit
(** [record_n h v n] adds [n] observations of value [v]. *)

val count : t -> int
(** Total number of recorded observations. *)

val min_value : t -> int
(** Smallest recorded value; 0 if empty. *)

val max_value : t -> int
(** Largest recorded value; 0 if empty. *)

val mean : t -> float
(** Arithmetic mean of recorded values; 0 if empty. *)

val percentile : t -> float -> int
(** [percentile h p] with [p] in [\[0, 100\]]: smallest bucket value such
    that at least [p]% of observations are <= it. 0 if empty. *)

val count_le : t -> int -> int
(** [count_le h v] is the number of observations in buckets whose range
    starts at or below [v] — cumulative counts at bucket resolution, as
    needed for OpenMetrics [le] buckets. 0 for negative [v]. *)

val sum : t -> float
(** Sum of all recorded values (the OpenMetrics [_sum] sample). *)

val cdf : t -> ?points:int -> unit -> (int * float) list
(** [cdf h ()] samples the cumulative distribution as
    [(value, fraction <= value)] pairs over the non-empty buckets,
    thinned to at most [points] (default 200) entries, always keeping the
    first and last. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds all of [src]'s observations to [dst]. *)

val clear : t -> unit
(** Reset to empty. *)
