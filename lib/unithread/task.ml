type outcome = Finished | Suspended

type _ Effect.t += Suspend : unit Effect.t

type status = Fresh | Running | Stored | Done

type t = {
  body : unit -> unit;
  mutable status : status;
  mutable k : (unit, outcome) Effect.Deep.continuation array;
      (* the stored continuation: one slot, made at the first suspension *)
  mutable suspensions : int;
  mutable handler : (unit, outcome) Effect.Deep.handler;
}

let suspend () = Effect.perform Suspend

(* Made once per task, with the suspension's callback, so neither a run
   nor a suspension builds a handler. *)
let handler t =
  let open Effect.Deep in
  let on_suspend =
    Some
      (fun (k : (unit, outcome) continuation) ->
        if Array.length t.k = 0 then t.k <- [| k |] else t.k.(0) <- k;
        t.status <- Stored;
        t.suspensions <- t.suspensions + 1;
        Suspended)
  in
  {
    retc =
      (fun () ->
        t.status <- Done;
        Finished);
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) :
           ((b, outcome) continuation -> outcome) option ->
        match eff with Suspend -> on_suspend | _ -> None);
  }

(* [create]'s placeholder until the task's own handler exists *)
let unset = { Effect.Deep.retc = (fun () -> Finished); exnc = raise; effc = (fun _ -> None) }

let create body =
  let t =
    { body; status = Fresh; k = [||]; suspensions = 0; handler = unset }
  in
  t.handler <- handler t;
  t

let run t =
  match t.status with
  | Running -> invalid_arg "Task.run: already running"
  | Done -> invalid_arg "Task.run: already finished"
  | Fresh ->
    t.status <- Running;
    Effect.Deep.match_with t.body () t.handler
  | Stored ->
    t.status <- Running;
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
