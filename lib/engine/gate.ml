type t = {
  sim : Sim.t;
  mutable pending : bool;
  mutable waiting : bool;
  mutable wake : unit -> unit;
}

let create sim = { sim; pending = false; waiting = false; wake = ignore }

let[@zero_alloc] await t k =
  if t.pending then begin
    t.pending <- false;
    k ()
  end
  else begin
    if t.waiting then failwith "Gate.await: already has a waiter";
    t.waiting <- true;
    t.wake <- k
  end

let[@zero_alloc] signal t =
  if t.waiting then begin
    t.waiting <- false;
    Sim.schedule t.sim ~delay:0 t.wake
  end
  else t.pending <- true
