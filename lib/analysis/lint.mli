(** adios-lint: domain-specific static analysis enforcing this repo's
    determinism boundary, exhaustive matches over [Event.kind], the
    zero-alloc contract of the functions marked [[@zero_alloc]], the
    cycle/microsecond unit boundary and a few hygiene rules. Every rule
    runs once, over the typedtrees in the [.cmt] artifacts dune leaves
    under [_build] (see {!Typed} and {!Typed_rules}), so a run needs
    [dune build @check] first. See lint.ml's header comment for the
    rule catalogue and DESIGN.md for why each invariant is
    machine-enforced. *)

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

val rule_names : string list
(** Every rule the pass can emit, including the [suppress-reason] and
    [parse-error] meta rules. Suppression comments may only name these. *)

val to_string : finding -> string
(** [file:line: [rule] message] — the gating format CI greps for. *)

val lint_source : path:string -> source:string -> unit -> finding list
(** Type [source] in-process (no cmt needed: fixtures carry local stub
    modules for [Sim]/[Clock]/[Event]) and run every per-unit rule on
    it. [path] is the repo-relative path and selects rule scopes (e.g.
    [lib/apps/] for [no-abort]); it does not need to exist on disk.
    Suppressions and the [stale-suppression] check are honoured. A
    source that fails to type is a [parse-error] finding. *)

val run : ?build_dir:string -> root:string -> unit -> int * finding list
(** Lint every [.ml] under [root/lib] and [root/bin] (skipping [_build]
    and dotted directories) over the [.cmt] artifacts under [build_dir]
    (default [root/_build/default]), honour suppressions, and return
    (files checked, sorted findings). [cmt-drift] demands a loadable,
    digest-current cmt for every scanned file, so an unbuilt tree fails
    loudly rather than silently skipping a file. *)
