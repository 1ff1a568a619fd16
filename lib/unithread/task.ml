module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc

type outcome = Finished | Suspended

type _ Effect.t += Yield : unit Effect.t

type status = Fresh | Running | Stored | Done

type t = {
  sim : Sim.t;
  body : unit -> unit;
  mutable status : status;
  mutable k : (unit, unit) Effect.Deep.continuation array;
      (* the parked continuation: one slot, made at the first block *)
  mutable suspensions : int;
  mutable host : outcome -> unit;  (* takes the current run's outcome *)
  mutable suspending : bool;  (* blocked in [Proc.suspend], not a wait *)
  mutable delay : Adios_engine.Clock.cycles;  (* the pending wait's *)
  mutable register : (unit -> unit) -> unit;  (* the pending suspension's *)
  mutable generation : int;
      (* bumped by every suspension and every resume: a [resume] closure
         is live only from its own suspension to its first call *)
  mutable wake : unit -> unit;  (* continues the parked continuation *)
  mutable handler : (unit, unit) Effect.Deep.handler;
}

let suspend () = Effect.perform Yield

let park t k =
  if Array.length t.k = 0 then t.k <- [| k |] else t.k.(0) <- k

let resume t generation () =
  if t.generation <> generation then failwith "Proc.suspend: double resume";
  t.generation <- generation + 1;
  Sim.schedule t.sim ~delay:0 t.wake

(* The one handler for [Proc.wait] and [Proc.suspend], made once per
   task with its callbacks, so neither a run nor a block builds one. A
   wait allocates only its effect and the continuation the runtime
   hands over; a suspension adds its one-shot [resume]. A block
   schedules or registers the task's own wake-up and returns, ending
   the event that ran the task; the wake-up continues the body, and
   whichever event sees it finish or yield hands the outcome to
   [host]. *)
let handler t =
  let open Effect.Deep in
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        park t k;
        t.status <- Stored;
        t.suspensions <- t.suspensions + 1;
        t.host Suspended)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) continuation) ->
        park t k;
        if not t.suspending then Sim.schedule t.sim ~delay:t.delay t.wake
        else begin
          t.generation <- t.generation + 1;
          t.register (resume t t.generation)
        end)
  in
  {
    retc =
      (fun () ->
        t.status <- Done;
        t.host Finished);
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) :
           ((b, unit) continuation -> unit) option ->
        match eff with
        | Proc.Wait d ->
          t.suspending <- false;
          t.delay <- d;
          on_block
        | Proc.Suspend register ->
          t.suspending <- true;
          t.register <- register;
          on_block
        | Yield -> on_yield
        | _ -> None);
  }

(* [create]'s placeholder until the task's own handler exists *)
let unset = { Effect.Deep.retc = ignore; exnc = raise; effc = (fun _ -> None) }

let create sim body =
  let t =
    {
      sim;
      body;
      status = Fresh;
      k = [||];
      suspensions = 0;
      host = ignore;
      suspending = false;
      delay = 0;
      register = ignore;
      generation = 0;
      wake = ignore;
      handler = unset;
    }
  in
  t.wake <- (fun () -> Effect.Deep.continue t.k.(0) ());
  t.handler <- handler t;
  t

let run t host =
  match t.status with
  | Running -> invalid_arg "Task.run: already running"
  | Done -> invalid_arg "Task.run: already finished"
  | Fresh ->
    t.status <- Running;
    t.host <- host;
    Effect.Deep.match_with t.body () t.handler
  | Stored ->
    t.status <- Running;
    t.host <- host;
    Effect.Deep.continue t.k.(0) ()

let rearm t =
  match t.status with
  | Fresh | Done ->
    t.status <- Fresh;
    t.suspensions <- 0
  | Running -> invalid_arg "Task.rearm: running"
  | Stored -> invalid_arg "Task.rearm: suspended"

let state t =
  match t.status with
  | Fresh -> `Fresh
  | Running -> `Running
  | Stored -> `Suspended
  | Done -> `Finished

let suspensions t = t.suspensions
