(* Seeded anomaly source for the fabric. All draws come from a private
   splitmix generator consulted in completion order, which the
   discrete-event core makes deterministic; the schedule therefore
   depends only on (config, completion sequence), never on wall clock,
   tracing, or the workload RNG. *)

module Rng = Adios_engine.Rng

type config = {
  drop : float;
  spike : float;
  stall : float;
  stall_cycles : int;
  throttle : float;
  seed : int;
}

let none =
  {
    drop = 0.;
    spike = 0.;
    stall = 0.;
    stall_cycles = 0;
    throttle = 0.;
    seed = 1;
  }

let enabled c =
  c.drop > 0. || c.spike > 0.
  || (c.stall > 0. && c.stall_cycles > 0)
  || c.throttle > 0.

type stats = { mutable drops : int; mutable spikes : int; mutable stalls : int }

type t = {
  cfg : config;
  rng : Rng.t;
  stats : stats;
  stall_until : (int, int) Hashtbl.t;  (* qp id -> cycle the window closes *)
}

let create cfg =
  {
    cfg;
    rng = Rng.create cfg.seed;
    stats = { drops = 0; spikes = 0; stalls = 0 };
    stall_until = Hashtbl.create 16;
  }

let config t = t.cfg
let stats t = t.stats
let injected t = t.stats.drops + t.stats.spikes + t.stats.stalls

type verdict = Deliver | Drop | Delay of int

(* The spike multiplier is exp|N(0,1)| >= 1, i.e. a lognormal tail
   folded onto the slow side; the extra delay is (mult - 1) * base. *)
let spike_extra t ~base_cycles =
  let z = abs_float (Rng.normal t.rng ~mean:0. ~std:1.0) in
  let mult = exp z in
  max 1 (int_of_float ((mult -. 1.) *. float_of_int (max 1 base_cycles)))

let on_completion t ~now ~is_read ~qp ~base_cycles =
  (* A stalled QP delays everything until the window closes; drawn
     anomalies stack on top of the remaining stall. *)
  let stall_left =
    match Hashtbl.find_opt t.stall_until qp with
    | Some till when till > now -> till - now
    | _ -> 0
  in
  let verdict =
    if is_read && t.cfg.drop > 0. && Rng.uniform t.rng < t.cfg.drop then begin
      t.stats.drops <- t.stats.drops + 1;
      Drop
    end
    else begin
      let extra =
        if t.cfg.spike > 0. && Rng.uniform t.rng < t.cfg.spike then begin
          t.stats.spikes <- t.stats.spikes + 1;
          spike_extra t ~base_cycles
        end
        else 0
      in
      if
        t.cfg.stall > 0. && t.cfg.stall_cycles > 0
        && Rng.uniform t.rng < t.cfg.stall
      then begin
        t.stats.stalls <- t.stats.stalls + 1;
        Hashtbl.replace t.stall_until qp (now + t.cfg.stall_cycles)
      end;
      if extra + stall_left > 0 then Delay (extra + stall_left) else Deliver
    end
  in
  verdict
