(** Page reclamation policies (section 3.3).

    Adios runs a {e proactive} reclaimer: a pinned thread that polls the
    free-frame level and evicts before the system reaches out-of-memory.
    DiLOS-style systems use a {e wakeup} reclaimer that a fault handler
    nudges under memory pressure and that only starts evicting after a
    scheduling delay — the difference the A1 ablation measures. *)

type mode =
  | Proactive  (** pinned thread polling every 2 us *)
  | Wakeup  (** started on demand after [wakeup_delay] *)

(** Either mode charges 150 CPU cycles per evicted page. *)
type config = {
  low_watermark : float;  (** free fraction that triggers eviction *)
  high_watermark : float;  (** free fraction eviction restores *)
  wakeup_delay : Adios_engine.Clock.cycles;  (** wakeup-mode scheduling delay *)
}

val default_config : config
(** Watermarks 4% / 6% free (the paper's reclaimer triggers at 15%; see
    DESIGN.md §5) and a 3 us wakeup delay. *)

type t

val start :
  ?trace:Adios_trace.Sink.t ->
  Adios_engine.Sim.t ->
  Pager.t ->
  mode ->
  config ->
  evict_page:(page:int -> dirty:bool -> (unit -> unit) -> unit) ->
  t
(** Launch the reclaimer. It is an event-driven actor, not a process:
    each wait of its loop (the proactive poll, the wake-up delay, the
    per-page cost) is one scheduled event. [evict_page ~page ~dirty k]
    runs after each eviction so the runtime can post the RDMA
    WRITE-back of dirty pages; it calls [k] when the reclaimer may go
    on, at once or, when it had to wait out a full QP, from a later
    event. [trace] receives a [Reclaim_begin]/[Reclaim_end] span per
    eviction batch. *)

val trigger : t -> unit
(** Memory-pressure nudge from the fault path; no-op in proactive mode
    (the pinned thread needs no wakeup — that is its point). *)

val evictions : t -> int
(** Pages evicted so far. *)

val stop : t -> unit
(** End of experiment: a proactive reclaimer schedules no further
    poll, and a trigger starts no further wakeup batch. *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Expose the eviction counter through the metrics registry under
    [labels]. *)
