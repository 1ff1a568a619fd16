type t = {
  sim : Adios_engine.Sim.t;
  mutable level : int;
  mutable last_change : int;
  mutable acc : int;
}

let create sim =
  { sim; level = 0; last_change = Adios_engine.Sim.now sim; acc = 0 }

let settle t =
  let now = Adios_engine.Sim.now t.sim in
  t.acc <- t.acc + (t.level * (now - t.last_change));
  t.last_change <- now

let set t v =
  settle t;
  t.level <- v

let integral t =
  settle t;
  t.acc

let mean_over t ~since_integral ~since_time =
  let now = Adios_engine.Sim.now t.sim in
  let dt = now - since_time in
  if dt <= 0 then 0.
  else float_of_int (integral t - since_integral) /. float_of_int dt
