(** Sweep execution: expand a {!Spec.t} into points and run them —
    in-process ([jobs <= 1]), as up to [jobs] parallel forked worker
    processes ([mode = `Fork], the default), or across [jobs] OCaml 5
    domains that claim points from one shared atomic cursor
    ([mode = `Domains]). Results are bit-identical across all three
    backends: every point builds a fresh simulator, app and RNG from its
    own deterministic seed, forked workers marshal the plain-data
    {!Adios_core.Runner.result} back unchanged, and domain workers
    share it directly. test/test_sweep.ml and the CI domains-smoke job
    gate the byte-equality of the resulting CSVs on every golden
    spec. *)

val run_point :
  ?cfg_tweak:(Adios_core.Config.t -> Adios_core.Config.t) ->
  ?profile:bool ->
  Spec.t ->
  Spec.point ->
  Adios_core.Runner.result
(** Run one point inline. [cfg_tweak] rewrites the configuration after
    the spec is applied, on whichever process or domain runs the point.
    [profile] (default false) attaches the critical-path
    profiler — perturbation-free, so every non-[prof] result field is
    byte-identical either way. *)

val point_label : Spec.point -> string
(** Human-readable point identifier for progress and error messages. *)

val run :
  ?jobs:int ->
  ?mode:[ `Fork | `Domains ] ->
  ?cfg_tweak:(Adios_core.Config.t -> Adios_core.Config.t) ->
  ?profile:bool ->
  ?progress:(Spec.point -> Adios_core.Runner.result -> unit) ->
  Spec.t ->
  (Spec.point * Adios_core.Runner.result) list
(** Run the whole sweep. [jobs <= 1] runs sequentially in-process;
    otherwise [mode] picks the parallel backend: [`Fork] (default)
    spawns up to [jobs] worker processes, [`Domains] runs the points
    on [jobs] domains (the caller plus [jobs - 1] spawned ones), each
    claiming the next unclaimed point. Results are returned in
    {!Spec.points} order and are byte-identical across backends;
    [progress] fires once per point, in points order, on the calling
    domain (fork: workers are drained in spawn order; domains:
    completions are released as the finished prefix grows). The
    sequential backend finishes the major GC cycle in progress before
    every point after the first, so a point's testbed is collected
    before the point two places later starts and the sweep's peak
    memory does not depend on the allocation history of earlier
    points.

    @raise Failure if a worker process dies or a point raises: fork
    and domains raise [Failure "sweep point <label>: <exn>"] naming the
    lowest-indexed failing point ({!point_label}). Fork kills the
    remaining workers first; domains stop claiming points and raise
    once every domain has joined. The sequential backend instead lets
    the point's own exception through. *)
