(** Latency summary extracted from a histogram: the percentiles the paper
    reports (P10/P50/P99/P99.9) plus extrema and mean, in cycles. *)

type t = {
  count : int;
  mean : float;
  min : int;
  p10 : int;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

val of_histogram : Histogram.t -> t
(** Compute the summary; all-zero if the histogram is empty. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering with microsecond units. *)
