module Histogram = Adios_stats.Histogram

type state =
  | App_compute
  | Pf_software
  | Busy_wait
  | Cq_poll
  | Ctx_switch
  | Dispatch
  | Tx
  | Idle

let states =
  [ App_compute; Pf_software; Busy_wait; Cq_poll; Ctx_switch; Dispatch; Tx; Idle ]

let state_count = List.length states

let state_index = function
  | App_compute -> 0
  | Pf_software -> 1
  | Busy_wait -> 2
  | Cq_poll -> 3
  | Ctx_switch -> 4
  | Dispatch -> 5
  | Tx -> 6
  | Idle -> 7

let state_name = function
  | App_compute -> "app_compute"
  | Pf_software -> "pf_software"
  | Busy_wait -> "busy_wait"
  | Cq_poll -> "cq_poll"
  | Ctx_switch -> "ctx_switch"
  | Dispatch -> "dispatch"
  | Tx -> "tx"
  | Idle -> "idle"

type cpu = {
  mutable state : state;
  mutable entered_at : int; (* when the current episode started *)
  closed : int array; (* cycles of closed episodes, per state *)
  episodes : Histogram.t array; (* closed episode lengths per state *)
}

type t = {
  sim : Adios_engine.Sim.t;
  created_at : int;
  slots : cpu array;
  mutable recording : bool;
      (* episodes go into [episodes]: only the metrics export reads
         them, so they are kept from [register_metrics] on *)
}

let create sim ~cpus =
  if cpus <= 0 then invalid_arg "Accountant.create: cpus must be positive";
  let now = Adios_engine.Sim.now sim in
  let slot _ =
    {
      state = Idle;
      entered_at = now;
      closed = Array.make state_count 0;
      episodes = Array.init state_count (fun _ -> Histogram.create ());
    }
  in
  { sim; created_at = now; slots = Array.init cpus slot; recording = false }

let cpus t = Array.length t.slots

let[@zero_alloc] switch t ~cpu state =
  let c = t.slots.(cpu) in
  if c.state <> state then begin
    let now = Adios_engine.Sim.now t.sim in
    let elapsed = now - c.entered_at in
    let i = state_index c.state in
    if elapsed > 0 && t.recording then Histogram.record c.episodes.(i) elapsed;
    c.closed.(i) <- c.closed.(i) + elapsed;
    c.state <- state;
    c.entered_at <- now
  end

(* Closed episodes plus the one still open. *)
let cycles_in t (c : cpu) st =
  let open_span =
    if c.state = st then Adios_engine.Sim.now t.sim - c.entered_at else 0
  in
  c.closed.(state_index st) + open_span

type snapshot = { duration : int; cpus : int; cycles : int array array }

let snapshot t =
  {
    duration = Adios_engine.Sim.now t.sim - t.created_at;
    cpus = Array.length t.slots;
    cycles =
      Array.map
        (fun c -> Array.of_list (List.map (cycles_in t c) states))
        t.slots;
  }

let state_cycles snap ?cpus state =
  let n = match cpus with Some n -> min n snap.cpus | None -> snap.cpus in
  let si = state_index state in
  let acc = ref 0 in
  for cpu = 0 to n - 1 do
    acc := !acc + snap.cycles.(cpu).(si)
  done;
  !acc

let share snap ?cpus state =
  let n = match cpus with Some n -> min n snap.cpus | None -> snap.cpus in
  let total = n * snap.duration in
  if total <= 0 then 0.
  else float_of_int (state_cycles snap ~cpus:n state) /. float_of_int total

let cpu_label t cpu =
  (* the last slot is the dispatcher by the convention in the mli *)
  if cpu = Array.length t.slots - 1 then "dispatcher" else string_of_int cpu

(* A switch that closes a non-empty episode moves [entered_at] past
   [created_at] for good: a CPU still in [Idle] since [created_at] has
   closed none. *)
let switched t =
  Array.exists
    (fun c -> c.state <> Idle || c.entered_at <> t.created_at)
    t.slots

let register_metrics t reg ~labels =
  if switched t then
    invalid_arg
      "Accountant.register_metrics: register before the first switch, or \
       the episode histograms miss what came before";
  t.recording <- true;
  Array.iteri
    (fun cpu c ->
      List.iter
        (fun st ->
          Registry.counter reg ~name:"adios_cpu_state_cycles_total"
            ~help:"Simulated cycles each CPU spent in each accounting state"
            ~labels:
              (labels
              @ [ ("cpu", cpu_label t cpu); ("state", state_name st) ])
            (fun () -> cycles_in t c st))
        states)
    t.slots;
  List.iter
    (fun st ->
      Registry.histogram reg ~name:"adios_cpu_state_episode_cycles"
        ~help:"Closed episode lengths per accounting state, merged across CPUs"
        ~labels:(labels @ [ ("state", state_name st) ])
        (fun () ->
          let dst = Histogram.create () in
          Array.iter
            (fun (c : cpu) ->
              Histogram.merge_into ~dst c.episodes.(state_index st))
            t.slots;
          dst))
    states
