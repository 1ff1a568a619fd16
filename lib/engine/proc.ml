type _ Effect.t +=
  | Wait : Clock.cycles -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let wait dt = Effect.perform (Wait dt)
let suspend register = Effect.perform (Suspend register)

(* Where a gate keeps its parked process: the process's wake-up, made
   once at [spawn], while [waiting]. *)
type waiter = { mutable waiting : bool; mutable wakeup : unit -> unit }

(* A gate's effect carries its [waiter], so [Gate.await] performs a
   value made once per gate. *)
type _ Effect.t += Park : waiter -> unit Effect.t

(* One process's blocking state, allocated once at [spawn]. A process
   parks in at most one place at a time, so one continuation slot
   serves every block: a one-element array, made at the first block
   (an array needs an element to start from). The handler passes the
   wait delay, the suspension's [register] and the gate's [waiter]
   through fields, and every wake schedules the same [wake] closure, so
   a wait allocates only its effect and the continuation the runtime
   hands over, a gate only the continuation, and a suspension adds
   just its one-shot [resume]. *)
type proc = {
  sim : Sim.t;
  mutable parked : (unit, unit) Effect.Deep.continuation array;
  mutable delay : Clock.cycles;
  mutable register : (unit -> unit) -> unit;
  mutable gate : waiter;
  mutable generation : int;
      (* bumped by every suspend and every resume: a [resume] closure
         is live only from its own suspend to its first call *)
}

let park p k =
  if Array.length p.parked = 0 then p.parked <- [| k |] else p.parked.(0) <- k

let spawn sim body =
  let open Effect.Deep in
  let p =
    {
      sim;
      parked = [||];
      delay = 0;
      register = ignore;
      gate = { waiting = false; wakeup = ignore };
      generation = 0;
    }
  in
  let wake () = continue p.parked.(0) () in
  let resume generation () =
    if p.generation <> generation then failwith "Proc.suspend: double resume";
    p.generation <- generation + 1;
    Sim.schedule p.sim ~delay:0 wake
  in
  let wakeup () = Sim.schedule p.sim ~delay:0 wake in
  let on_wait =
    Some
      (fun k ->
        park p k;
        Sim.schedule p.sim ~delay:p.delay wake)
  in
  let on_suspend =
    Some
      (fun k ->
        park p k;
        p.generation <- p.generation + 1;
        p.register (resume p.generation))
  in
  let on_park =
    Some
      (fun k ->
        park p k;
        p.gate.waiting <- true;
        p.gate.wakeup <- wakeup)
  in
  let handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) continuation -> unit) option ->
          match eff with
          | Wait dt ->
            p.delay <- dt;
            on_wait
          | Suspend register ->
            p.register <- register;
            on_suspend
          | Park w ->
            p.gate <- w;
            on_park
          | _ -> None);
    }
  in
  Sim.schedule sim ~delay:0 (fun () -> match_with body () handler)

module Gate = struct
  type t = { mutable pending : bool; waiter : waiter; park : unit Effect.t }

  let create (_ : Sim.t) =
    let waiter = { waiting = false; wakeup = ignore } in
    { pending = false; waiter; park = Park waiter }

  let[@zero_alloc] await t =
    if t.pending then t.pending <- false
    else begin
      if t.waiter.waiting then failwith "Gate.await: already has a waiter";
      Effect.perform t.park
    end

  (* The parked process's [wakeup] schedules its [wake] at once: the
     same single event a suspension's [resume] schedules. *)
  let[@zero_alloc] signal t =
    let w = t.waiter in
    if w.waiting then begin
      w.waiting <- false;
      let wakeup = w.wakeup in
      w.wakeup <- ignore;
      wakeup ()
    end
    else t.pending <- true
end
