module Proc = Adios_engine.Proc

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

type t = {
  sim : Adios_engine.Sim.t;
  pager : Pager.t;
  mode : mode;
  config : config;
  evict_page : page:int -> dirty:bool -> unit;
  mutable evictions : int;
  mutable running : bool; (* eviction loop active (wakeup mode) *)
  mutable stopped : bool;
  trace : Adios_trace.Sink.t;
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

(* Evict until the high watermark is restored; runs in process context
   and charges per-page CPU cost. *)
let evict_until_high t =
  emit t Adios_trace.Event.Reclaim_begin;
  let continue = ref true in
  while !continue && below_high t do
    match Pager.pick_victim t.pager with
    | None -> continue := false
    | Some page ->
      Proc.wait per_page_cost;
      (* Re-check: the page may have been evicted while we slept. *)
      if Pager.state t.pager page = Pager.Present then begin
        let dirty = Pager.evict t.pager page in
        t.evictions <- t.evictions + 1;
        t.evict_page ~page ~dirty
      end
  done;
  emit t Adios_trace.Event.Reclaim_end

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
    }
  in
  (match mode with
  | Proactive ->
    Proc.spawn sim (fun () ->
        while not t.stopped do
          Proc.wait period;
          if low t then evict_until_high t
        done)
  | Wakeup -> ());
  t

let trigger t =
  match t.mode with
  | Proactive -> ()
  | Wakeup ->
    if (not t.running) && not t.stopped then begin
      t.running <- true;
      Proc.spawn t.sim (fun () ->
          Proc.wait t.config.wakeup_delay;
          evict_until_high t;
          t.running <- false)
    end

let evictions t = t.evictions
let stop t = t.stopped <- true

let register_metrics t reg ~labels =
  Adios_obs.Registry.counter reg ~name:"adios_reclaimer_evictions_total"
    ~help:"Pages evicted by the reclaimer" ~labels (fun () -> evictions t)
