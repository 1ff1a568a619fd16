(** Sweep execution: expand a {!Spec.t} into points and run them —
    in-process ([jobs <= 1]), on a pool of up to [jobs] long-lived
    forked worker processes per app block ([mode = `Fork], the
    default), or across [jobs] OCaml 5 domains that claim points from
    one shared atomic cursor ([mode = `Domains]).

    Each app's dataset is built once per {!run}: {!Spec.points} is
    app-major (app, then system, variant, cluster and load), and every
    point of an app's block, whatever its system or variant, runs on
    one pristine {!Adios_core.App.image}. The fork backend builds the
    image in the coordinator, then forks the block's workers, which
    inherit it copy-on-write; each worker runs the points it is sent one
    after another, and the next block gets a new pool. The sequential backend,
    and each domain of the domains backend, builds it inside the block's
    first point from that point's own [App.t]. Every backend restores
    the pages a point wrote ({!Adios_mem.Arena.rollback}) before the
    next point on that image starts. When a block ends, its image is
    dropped and a full major GC runs before the next image is built. A
    spec's factories must therefore build the same dataset on every
    call, and the factory runs once per point in that point's process,
    before [cfg_tweak], plus once per app block in the fork
    coordinator.

    Results are bit-identical across all three backends and to points
    run one at a time on fresh builds: every point builds a fresh
    simulator, app and RNG from its own deterministic seed on a pristine
    dataset, forked workers marshal the plain-data
    {!Adios_core.Runner.result} back unchanged, and domain workers share
    it directly. test/test_sweep.ml and the CI domains-smoke job gate
    the byte-equality of the resulting CSVs on every golden spec, and
    test_sweep checks every registry app against fresh builds. *)

val run_point :
  ?cfg_tweak:(Adios_core.Config.t -> Adios_core.Config.t) ->
  ?profile:bool ->
  Spec.t ->
  Spec.point ->
  Adios_core.Runner.result
(** Run one point inline, on a dataset built for it alone. The factory
    runs first, then [cfg_tweak], which rewrites the configuration after
    the spec is applied, on whichever process or domain runs the point.
    [profile] (default false) attaches the critical-path
    profiler — perturbation-free, so every non-[prof] result field is
    byte-identical either way. *)

val point_label : Spec.point -> string
(** Human-readable point identifier for progress and error messages:
    system, app, variant (unless it is {!Spec.default_variant}), load
    and point seed. *)

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
    runs each app block on [min jobs block_length] worker processes,
    handing the next unsent point to whichever worker reports first;
    [`Domains] runs the points on [jobs] domains (the caller plus
    [jobs - 1] spawned ones), each claiming the next unclaimed point.
    Results are returned in {!Spec.points} order and are byte-identical
    across backends. A {!Dataset} of them has no variant column, so the
    caller of a spec with several variants tells its rows apart by each
    point's [variant]. [progress] fires once per point, in points order,
    on the calling domain; the parallel backends release it as the
    finished prefix of the points grows. The sequential backend and
    every fork worker run a full major GC before each point after their
    first, so a point's testbed is collected before the next point
    starts and the sweep's peak memory does not depend on the
    allocation history of earlier points.

    No fork worker outlives [run], however it ends: a point that fails,
    a worker that dies, or a [progress] that raises (the exception
    passes through once the workers are reaped).

    @raise Failure if a worker process dies or a point raises: fork
    and domains raise [Failure "sweep point <label>: <exn>"] naming the
    lowest-indexed failing point ({!point_label}); a worker that dies
    mid-point gives [<exn>] = ["worker exited before reporting"]. Both
    stop handing out points after a failure and raise once the points
    in flight have finished. The sequential backend instead lets the
    point's own exception through. *)
