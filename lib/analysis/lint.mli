(** adios-lint: domain-specific static analysis enforcing this repo's
    determinism boundary, exhaustive matches over [Event.kind] and a
    few hygiene rules — plus a typedtree-backed layer
    ([zero-alloc] over the functions marked [[@zero_alloc]],
    [cycle-units], [cmt-drift]) that loads the [.cmt] artifacts dune
    leaves under [_build] (see {!Typed} and {!Typed_rules}). The
    syntactic rules need no build; the typed rules need
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

val lint_source :
  ?event_kinds:string list -> path:string -> source:string -> unit -> finding list
(** Run every per-file rule on one compilation unit. [path] is the
    repo-relative path and selects rule scopes (e.g. [lib/apps/] for
    [no-abort]); it does not need to exist on disk. [event_kinds] are
    the [Event.kind] constructor names the [event-wildcard] rule keys
    on (default: rule disabled). Suppression comments in [source] are
    honoured. *)

val lint_typed_source : path:string -> source:string -> unit -> finding list
(** Type [source] in-process (no cmt needed: fixtures carry local stub
    modules for [Sim]/[Clock]) and run the typed rules on it:
    [zero-alloc] over the functions [source] marks [[@zero_alloc]], and
    [cycle-units] unless [path] is exempt. Suppressions and the
    [stale-suppression] check are honoured. A source that fails to type
    is a [parse-error] finding. *)

val run :
  ?typed:bool -> ?build_dir:string -> root:string -> unit -> int * finding list
(** Lint every [.ml] under [root/lib] and [root/bin] (skipping [_build]
    and dotted directories), honour suppressions, and return (files
    checked, sorted findings).

    With [typed] (the default), additionally load the [.cmt] artifacts
    under [build_dir] (default [root/_build/default]) and run the
    typedtree rules: [cmt-drift] demands a loadable, digest-current cmt
    for every scanned file — so an unbuilt tree fails loudly rather
    than silently skipping the typed layer; pass [~typed:false] for a
    syntax-only run (the pre-build CI step). *)
