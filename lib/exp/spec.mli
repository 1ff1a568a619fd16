(** Declarative sweep specification: apps x systems x variants x
    cluster topologies x load grid, with a sweep seed. A spec expands to
    a list of {!point}s, each with a deterministic per-point seed, so a
    sweep is replayable point-by-point in any order and across worker
    processes. *)

type variant = string * (Adios_core.Config.t -> Adios_core.Config.t)
(** A named rewrite of a system's default configuration: one setting of
    an experiment's knob, such as Fig. 8's local-memory ratio or
    Fig. 9's TX mode. *)

type t = {
  name : string;  (** dataset label, e.g. ["array-reduced"] *)
  systems : Adios_core.Config.system list;
  apps : (string * (unit -> Adios_core.App.t)) list;
      (** name + factory. Every point makes a fresh [App.t], so no
          OCaml-side state leaks between points; the points of one app
          share its built dataset ({!Sweep}), so a factory must build
          the same dataset on every call *)
  variants : variant list;
      (** the configuration axis; default [[default_variant]]. Datasets
          carry no variant column, so a spec with several variants is
          for callers that tell its rows apart themselves (the bench
          harness); every golden spec has one *)
  loads : float list;  (** offered-load grid, KRPS, ascending *)
  requests : int;  (** arrivals injected per point *)
  seed : int;  (** sweep master seed; per-point seeds derive from it *)
  clusters : Adios_cluster.Cluster.config list;
      (** memory-node topology axis; default [[Cluster.default]] (one
          node, R = 1) keeps every existing spec byte-identical *)
}

type point = {
  index : int;  (** position in {!points} order *)
  system : Adios_core.Config.system;
  app_name : string;
  make_app : unit -> Adios_core.App.t;
  variant : variant;
  load : float;
  point_seed : int;
  cluster : Adios_cluster.Cluster.config;
}

val default_variant : variant
(** [("default", Fun.id)]: each system's default configuration. *)

val point_seed : seed:int -> index:int -> int
(** Deterministic per-point seed, a pure function of the sweep seed and
    the point index (not of execution order). *)

val make :
  ?systems:Adios_core.Config.system list ->
  ?apps:string list ->
  ?variants:variant list ->
  ?loads:float list ->
  ?requests:int ->
  ?seed:int ->
  ?clusters:Adios_cluster.Cluster.config list ->
  name:string ->
  unit ->
  t
(** Build a spec, resolving app names through
    {!Adios_apps.Registry}. Defaults: all four systems, the array app,
    the default variant, 4000 requests, seed 42, one memory node.

    @raise Invalid_argument on an unknown app name. *)

val clustered : t -> bool
(** Any non-trivial topology on the cluster axis? (Drives whether
    datasets carry the cluster columns.) *)

val points : t -> point list
(** Grid expansion, app-major then system then variant then cluster
    then load: each (app, system, variant, cluster) series is a
    contiguous ascending-load block, and all of an app's points are one
    block. *)

val config : point -> Adios_core.Config.t
(** The per-point run configuration: the system's default, rewritten by
    the point's variant, then given the point's seed, cluster and fetch
    timeout, which a variant therefore cannot change. The timeout is
    50 us on a faulty fabric (as a variant sets it) or a cluster that
    crashes a node, and 0 (off) otherwise. *)

val point_count : t -> int

(** {2 Canonical reduced-scale specs (the golden tier)}

    The grids bracket every system's P99.9 knee at 4000 requests.
    [test/golden/<name>.csv] is regenerated from these exact specs by
    [adios_sweep --regen-golden]; change them only together. *)

val reduced_array : t
val reduced_memcached : t
val reduced_rocksdb_scan : t

val reduced : t list
(** The canonical single-node reduced specs, in golden-directory order. *)

val cluster_reduced : t
(** Adios over the nodes x replication x crashes topology grid at one
    sub-knee load; its golden carries the cluster columns and is gated
    by the failover + replication-tail oracles. *)

val steal_reduced : t
(** Adios vs the Steal per-CPU work-stealing variant on the array app at
    16 workers (its one variant): the centralized-vs-distributed
    dispatch contrast, gated by {!Oracle.check_steal}. *)

val all_goldens : t list
(** Every spec with a checked-in golden: {!reduced} plus
    {!cluster_reduced} and {!steal_reduced}. *)

val reduced_by_name : string -> t option
(** Lookup over {!all_goldens}. *)
