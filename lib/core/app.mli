(** Interface between applications and the MD runtime.

    An application declares its working set, builds its dataset into the
    arena before the clock starts, generates request specs for the load
    generator, and handles one request at a time through a {!ctx} whose
    [view] faults like real paged memory. The same application code runs
    on every system under test — like the paper's apps, which only add a
    remote-memory mmap flag.

    A dataset outlives the [App.t] that built it. {!build_image} keeps
    the built arena together with the OCaml-side handles [build] left
    (the store, index or tables that point into the arena), and any
    other [App.t] from the same factory can [adopt] those handles and
    run on that arena without building it again: the paper's testbed
    loads its working set once and then sweeps the offered load. *)

exception Bad_request of string
(** A malformed or unsatisfiable request. The worker catches it at the
    task boundary and completes the request as an error reply
    ([Request.errored]) instead of aborting the simulation — the only
    sanctioned failure mode on a request-serving path (the [no-abort]
    lint rule rejects [failwith] / [assert false] there). *)

val bad_request : ('a, unit, string, 'b) format4 -> 'a
(** [bad_request fmt ...] raises {!Bad_request} with a formatted message. *)

val require : string -> 'a option -> 'a
(** [require what o] unwraps [o], raising {!Bad_request} ["what: not
    initialised"] when it is [None] — for app state built before the
    clock starts (stores, indexes) that a handler needs. *)

type ctx = {
  view : Adios_mem.View.t;
      (** paged access to the working set; reads may block the caller *)
  compute : int -> unit;
      (** charge CPU cycles to the current unithread (blocks the worker) *)
  checkpoint : unit -> unit;
      (** preemption probe; apps call it between work units (Concord's
          compiler would insert these) *)
  rng : Adios_engine.Rng.t;
      (** deterministic per-run randomness for app-internal choices *)
}

type handles = ..
(** What an app's [build] leaves on the OCaml side besides the bytes in
    the arena. Each app module adds its own constructor. *)

type handles += No_handles  (** an app whose dataset is all in the arena *)

type t = {
  name : string;
  pages : int;  (** working-set size in 4 KB pages *)
  page_size : int;
  build : Adios_mem.View.t -> unit;
      (** populate the dataset (direct, non-faulting view); the handles
          into it stay in the app *)
  save : unit -> handles;
      (** after [build]: the handles it left, as a value an {!image}
          keeps. Nothing mutates the saved value afterwards, so it is the
          pristine copy every later [adopt] starts from. *)
  adopt : handles -> unit;
      (** instead of [build]: take a fresh copy of handles [save]d by an
          [App.t] from the same factory, without touching the arena. The
          copy is this app's own, so a run that changes it (silo's
          B+-tree roots) leaves the saved value as it was.
          @raise Invalid_argument on another app's handles *)
  gen : Adios_engine.Rng.t -> Request.spec;
      (** draw one request from the workload distribution *)
  handle : ctx -> Request.spec -> unit;
      (** serve a request; runs inside a unithread *)
  kinds : string array;
      (** display names for [Request.spec.kind] values *)
}

val page_size : int
(** Compute-node page size: 4 KB everywhere (the paper's compute side). *)

type image = {
  arena : Adios_mem.Arena.t;  (** the built dataset *)
  handles : handles;  (** what [build] left, as [save] returned it *)
}
(** A built dataset that every [App.t] from the same factory can run
    on. Runs that write to it must be undone between runs
    ({!Adios_mem.Arena.rollback}), or each run needs its own copy. *)

val build_image : t -> image
(** Zero an arena of the app's size, [build] into it through a direct
    view, and [save] the handles. *)
