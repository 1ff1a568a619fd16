(** Periodic time series.

    A timeline is a set of named gauges (closures returning the current
    value of some quantity — queue depth, free frames, bytes fetched so
    far) sampled together at periodic timestamps. The runner registers
    every scalar metric of a run on one and drives {!sample} from a
    simulation process; {!to_csv} dumps the matrix for plotting.

    Gauges must all be registered before the first {!sample} so every
    row has the same arity. *)

type t

val create : unit -> t

val add_gauge : t -> name:string -> (unit -> float) -> unit
(** Register a series. @raise Invalid_argument after sampling started
    or on a duplicate name. *)

val sample : t -> ts:int -> unit
(** Read every gauge and append one row at [ts] (simulation cycles). *)

val names : t -> string list
(** Series names in registration order. *)

val length : t -> int
(** Rows recorded so far. *)

val to_rows : t -> (int * float array) list
(** Samples oldest-first; each array is in {!names} order. *)

val to_csv : ?cycles_per_us:int -> t -> string
(** CSV with header [ts_cycles,ts_us,<series...>]. A series name that
    holds a comma, a double quote or a line break is quoted as RFC 4180
    specifies, so the header has exactly as many fields as every row.
    [cycles_per_us] defaults to the simulator's 2 GHz clock. *)

val write_csv : ?cycles_per_us:int -> path:string -> t -> unit
