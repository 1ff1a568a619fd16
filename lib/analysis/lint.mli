(** adios-lint: domain-specific static analysis enforcing this repo's
    determinism boundary, [Event.kind] wiring, counter/export
    consistency and a few hygiene rules — plus a typedtree-backed layer
    ([zero-alloc], [cycle-units], [cmt-drift]) that loads the [.cmt]
    artifacts dune leaves under [_build] (see {!Typed} and
    {!Typed_rules}). The syntactic rules need no build; the typed rules
    need [dune build @check] first. See lint.ml's header comment for
    the rule catalogue and DESIGN.md for why each invariant is
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

val check_event_wiring :
  event:string * string ->
  chrome:string * string ->
  checker:string * string ->
  finding list
(** Cross-file rule [event-wiring] over [(path, source)] pairs for
    event.ml, chrome.ml and checker.ml: every constructor of the
    variant type [kind] must appear in a pattern of all three files. *)

val check_counter_export :
  system:string * string ->
  runner:string * string ->
  export:string * string ->
  finding list
(** Cross-file rule [counter-export] over [(path, source)] pairs for
    system.ml, runner.ml and export.ml: every mutable field of the
    record type [counters] must be projected as [System.field] in the
    runner, and every scalar field of the record type [result] must be
    projected as [Runner.field] in the export field list. *)

val check_phase_wiring :
  phase:string * string ->
  export:string * string ->
  report:string * string ->
  finding list
(** Cross-file rule [phase-wiring] over [(path, source)] pairs for
    lib/prof/phase.ml, lib/core/export.ml and lib/core/report.ml: every
    constructor of the attribution-phase variant type [t] must appear
    in a pattern of all three files (the name table, the
    tail-forensics CSV column map and the report label) — wildcard arms
    do not count. *)

val check_metric_export : sources:(string * string) list -> finding list
(** Cross-file rule [metric-export] over every [(path, source)] pair:
    metric name literals at registration sites ([counter]/[gauge]/
    [histogram] applications) must follow the OpenMetrics convention
    (adios_ prefix, [a-z0-9_], counters end in [_total], gauges and
    histograms do not), and every toplevel [register_metrics] must be
    called from another file — module aliases are resolved one step —
    or its series never reach an exporter. *)

val check_counter_registry : system:string * string -> finding list
(** Cross-file rule [counter-registry] over system.ml's
    [(path, source)]: every mutable field of the record type [counters]
    must be projected inside the [register_metrics] binding, so a new
    counter cannot be added without registering it. *)

val check_manifest_files :
  manifest:Hotpath.entry list -> sources:(string * string) list -> finding list
(** [zero-alloc] findings for [manifest] entries whose file is not among
    the [(path, source)] pairs: each is reported against the line of
    lib/analysis/hotpath.ml that names the file (line 1 if that source
    is absent). The typed pass of {!run} applies it to
    {!Hotpath.manifest}, so moving or deleting a hot-path file without
    its entry is a finding rather than a silently dropped check. *)

val lint_typed_source :
  ?manifest:Hotpath.entry list ->
  path:string ->
  source:string ->
  unit ->
  finding list
(** Type [source] in-process (no cmt needed: fixtures carry local stub
    modules for [Sim]/[Clock]) and run the typed rules on it:
    [zero-alloc] if [path] has a [manifest] entry (default: the real
    {!Hotpath.manifest}), and [cycle-units] unless [path] is exempt.
    Suppressions and the [stale-suppression] check are honoured. A
    source that fails to type is a [parse-error] finding. *)

val run :
  ?typed:bool -> ?build_dir:string -> root:string -> unit -> int * finding list
(** Lint every [.ml] under [root/lib] and [root/bin] (skipping [_build]
    and dotted directories), apply the cross-file rules, honour
    suppressions, and return (files checked, sorted findings).

    With [typed] (the default), additionally load the [.cmt] artifacts
    under [build_dir] (default [root/_build/default]) and run the
    typedtree rules: [cmt-drift] demands a loadable, digest-current cmt
    for every scanned file — so an unbuilt tree fails loudly rather
    than silently skipping the typed layer; pass [~typed:false] for a
    syntax-only run (the pre-build CI step). *)
