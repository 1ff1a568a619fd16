(* Run [body] as a free-standing unithread, started from one event at
   the current time the way a worker starts a request's; its outcome
   goes nowhere. Tests use it to block in [Proc.wait] and
   [Proc.suspend] outside a system. *)
let spawn sim body =
  Adios_engine.Sim.schedule sim ~delay:0 (fun () ->
      Adios_unithread.Task.run (Adios_unithread.Task.create sim body) ignore)
