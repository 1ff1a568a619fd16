type t = {
  sim : Adios_engine.Sim.t;
  bytes_per_cycle : float;
  wire_overhead : float;
  busy : Adios_stats.Integrator.t;
  reset : unit -> unit;  (* the busy-reset event every [occupy] schedules *)
  mutable bytes : int;
  mutable perturb : (int -> int) option;
  mutable memo_bytes : int;  (* the last payload size serialized ... *)
  mutable memo_cycles : int;  (* ... and its nominal cycles *)
}

let create sim ~gbps ?(wire_overhead = 0.27) () =
  let bytes_per_sec = gbps *. 1e9 /. 8. in
  let bytes_per_cycle =
    bytes_per_sec /. float_of_int Adios_engine.Clock.cycles_per_sec
  in
  let busy = Adios_stats.Integrator.create sim in
  {
    sim;
    bytes_per_cycle;
    wire_overhead;
    busy;
    reset = (fun () -> Adios_stats.Integrator.set busy 0);
    bytes = 0;
    perturb = None;
    memo_bytes = 0;
    memo_cycles = 1 (* an empty message still takes a cycle *);
  }

let set_perturb t f = t.perturb <- f

let[@cold][@inline never] nominal_cycles t ~bytes =
  let wire = float_of_int bytes *. (1. +. t.wire_overhead) in
  max 1 (int_of_float (ceil (wire /. t.bytes_per_cycle)))

(* A link carries a handful of payload sizes (pages one way, pages or
   replies the other), so the float arithmetic runs once per change of
   size, not once per message. *)
let[@zero_alloc] serialize_cycles t ~bytes =
  if bytes <> t.memo_bytes then begin
    t.memo_cycles <- nominal_cycles t ~bytes;
    t.memo_bytes <- bytes
  end;
  let base = t.memo_cycles in
  match t.perturb with None -> base | Some f -> base + max 0 (f base)

let[@zero_alloc] occupy t ~cycles ~bytes =
  t.bytes <- t.bytes + bytes;
  Adios_stats.Integrator.set t.busy 1;
  Adios_engine.Sim.schedule t.sim ~delay:cycles t.reset

let snapshot t =
  (Adios_stats.Integrator.integral t.busy, Adios_engine.Sim.now t.sim)

let utilization_since t ~snapshot:(since_integral, since_time) =
  Adios_stats.Integrator.mean_over t.busy ~since_integral ~since_time

let bytes_carried t = t.bytes
