(** Central metrics registry.

    One registry per run; subsystems ({!Adios_core.System},
    [Adios_rdma.Nic], [Adios_mem.Pager], [Adios_mem.Reclaimer], the
    {!Accountant}) register typed metrics into it at construction time
    and the exporters ({!Openmetrics}, the snapshot timeline) read them
    out. A metric is a name, help text, a label set and a {e reader}
    closure over the subsystem's existing mutable state — registration
    moves no counters, it only exposes them, so the hot paths keep
    their plain increments.

    Naming follows the Prometheus conventions and is enforced at
    registration: names match [adios_[a-z0-9_]*], counters end in
    [_total] and gauges and histograms do not, and a (name, labels)
    pair may be registered only once. *)

type value =
  | Counter of (unit -> int)
      (** monotonically non-decreasing; reader returns the running
          total *)
  | Gauge of (unit -> float)  (** instantaneous level *)
  | Histogram of (unit -> Adios_stats.Histogram.t)
      (** reader returns the live histogram (not copied) *)

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;  (** in registration order *)
  value : value;
}

type t

val create : unit -> t

val register :
  t ->
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  value ->
  unit
(** @raise Invalid_argument on a malformed name (see above), a counter
    not ending in [_total], a gauge or histogram ending in [_total], a
    malformed label name, or a duplicate (name, labels) registration. *)

val counter :
  t ->
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  (unit -> int) ->
  unit

val gauge :
  t ->
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  (unit -> float) ->
  unit

val histogram :
  t ->
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  (unit -> Adios_stats.Histogram.t) ->
  unit

val metrics : t -> metric list
(** In registration order. *)

val series_name : metric -> string
(** Flat single-string identity of a metric instance:
    [name] or [name{k=v,...}] with labels in registration order. Used
    as the snapshot-CSV column header and for duplicate detection. *)

val scalar_series : t -> (string * (unit -> float)) list
(** Every counter and gauge as a [(series_name, reader)] pair, in
    registration order; histograms are skipped (they are not a single
    number). This is what the snapshot timeline samples. *)

val attach_timeline : t -> Adios_trace.Timeline.t -> unit
(** Register every {!scalar_series} entry as a gauge on the timeline.
    Call before the timeline's first sample. *)
