module Sim = Adios_engine.Sim

type mode = Proactive | Wakeup

type config = {
  low_watermark : float;
  high_watermark : float;
  wakeup_delay : Adios_engine.Clock.cycles;
}

let default_config =
  {
    low_watermark = 0.04;
    high_watermark = 0.06;
    wakeup_delay = Adios_engine.Clock.of_us 3.;
  }

(* The proactive thread's polling interval, and the CPU cost of one
   eviction. *)
let period = Adios_engine.Clock.of_us 2.
let per_page_cost = 150

(* The reclaimer is an event-driven actor: each wait of its loop is
   one [Sim.schedule] of a continuation made once with it. *)
type t = {
  sim : Sim.t;
  pager : Pager.t;
  mode : mode;
  config : config;
  evict_page : page:int -> dirty:bool -> (unit -> unit) -> unit;
  mutable evictions : int;
  mutable running : bool; (* eviction loop active (wakeup mode) *)
  mutable stopped : bool;
  trace : Adios_trace.Sink.t;
  mutable victim : int;  (* the page whose eviction cost is being paid *)
  mutable evict : unit -> unit;  (* that cost paid: evict [victim] *)
  mutable next : unit -> unit;  (* an eviction done: pick the next *)
  mutable tick : unit -> unit;
      (* a proactive poll, or a wake-up's delay, ran out *)
}

let free_fraction t =
  float_of_int (Pager.free_frames t.pager)
  /. float_of_int (Pager.capacity t.pager)

(* when the whole working set fits in local DRAM there is nothing to
   reclaim for: evicting would only manufacture faults *)
let fits t = Pager.pages t.pager <= Pager.capacity t.pager

let low t = (not (fits t)) && free_fraction t < t.config.low_watermark

let below_high t =
  (not (fits t)) && free_fraction t < t.config.high_watermark

let emit t kind =
  Adios_trace.Sink.emit t.trace
    ~ts:(Adios_engine.Sim.now t.sim)
    ~kind ~req:Adios_trace.Event.reclaimer_actor
    ~worker:Adios_trace.Event.reclaimer_actor ~page:Adios_trace.Event.none

(* Evict until the high watermark is restored, charging the per-page
   CPU cost before each eviction; then the proactive loop polls again,
   or a wake-up ends. *)
let rec evict_next t =
  let victim = if below_high t then Pager.pick_victim t.pager else None in
  match victim with
  | Some page ->
    t.victim <- page;
    Sim.schedule t.sim ~delay:per_page_cost t.evict
  | None -> (
    emit t Adios_trace.Event.Reclaim_end;
    match t.mode with
    | Proactive -> poll t
    | Wakeup -> t.running <- false)

and poll t = if not t.stopped then Sim.schedule t.sim ~delay:period t.tick

let evict t =
  let page = t.victim in
  (* Re-check: the page may have been evicted while we slept. *)
  if Pager.state t.pager page = Pager.Present then begin
    let dirty = Pager.evict t.pager page in
    t.evictions <- t.evictions + 1;
    t.evict_page ~page ~dirty t.next
  end
  else evict_next t

let evict_until_high t =
  emit t Adios_trace.Event.Reclaim_begin;
  evict_next t

let tick t =
  match t.mode with
  | Proactive -> if low t then evict_until_high t else poll t
  | Wakeup -> evict_until_high t

let start ?(trace = Adios_trace.Sink.null) sim pager mode config ~evict_page =
  let t =
    {
      sim;
      pager;
      mode;
      config;
      evict_page;
      evictions = 0;
      running = false;
      stopped = false;
      trace;
      victim = 0;
      evict = ignore;
      next = ignore;
      tick = ignore;
    }
  in
  t.evict <- (fun () -> evict t);
  t.next <- (fun () -> evict_next t);
  t.tick <- (fun () -> tick t);
  (match mode with
  | Proactive -> Sim.schedule sim ~delay:0 (fun () -> poll t)
  | Wakeup -> ());
  t

let trigger t =
  match t.mode with
  | Proactive -> ()
  | Wakeup ->
    if (not t.running) && not t.stopped then begin
      t.running <- true;
      Sim.schedule t.sim ~delay:0 (fun () ->
          Sim.schedule t.sim ~delay:t.config.wakeup_delay t.tick)
    end

let evictions t = t.evictions
let stop t = t.stopped <- true

let register_metrics t reg ~labels =
  Adios_obs.Registry.counter reg ~name:"adios_reclaimer_evictions_total"
    ~help:"Pages evicted by the reclaimer" ~labels (fun () -> evictions t)
