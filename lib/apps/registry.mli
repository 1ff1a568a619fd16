(** Name -> application factory table shared by the CLI front ends and
    the sweep subsystem. Factories are thunks so every experiment point
    gets a fresh [App.t] (no shared mutable state between points), and
    every call builds the same dataset, so the points of a sweep can
    share one built image of it (see [Adios_exp.Sweep]). *)

val names : string list
(** Valid application names, in table order. *)

val find : string -> (unit -> Adios_core.App.t) option
(** [find name] is the factory registered under [name] (the alias
    ["memcached-128"] resolves to ["memcached"]). *)

val unknown : string -> string
(** Error message for an unrecognised name, listing the valid ones. *)
