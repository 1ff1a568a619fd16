type state = Remote | Inflight | Present

type t = {
  pages : int;
  capacity : int;
  state : Bytes.t; (* 0 remote, 1 inflight, 2 present *)
  referenced : Bytes.t; (* 0/1 *)
  dirty : Bytes.t; (* 0/1 *)
  ring : int array; (* capacity slots: page id or -1 *)
  slot_of : int array; (* page -> ring slot or -1 *)
  free_slots : int array;
      (* stack of empty ring slots, [nfree] deep: slot 0 on top at
         first, every emptied slot pushed on top *)
  mutable nfree : int;
  mutable hand : int;
  mutable resident : int;
  mutable inflight : int;
  waiters : (int, (unit -> unit) list) Hashtbl.t;
  frame_waiters : (unit -> unit) Queue.t;
  mutable trace : Adios_trace.Sink.t;
  mutable trace_now : unit -> int;
}

let create ~pages ~capacity =
  if capacity <= 0 || capacity > pages then
    invalid_arg "Pager.create: capacity out of range";
  {
    pages;
    capacity;
    state = Bytes.make pages '\000';
    referenced = Bytes.make pages '\000';
    dirty = Bytes.make pages '\000';
    ring = Array.make capacity (-1);
    slot_of = Array.make pages (-1);
    free_slots = Array.init capacity (fun i -> capacity - 1 - i);
    nfree = capacity;
    hand = 0;
    resident = 0;
    inflight = 0;
    waiters = Hashtbl.create 64;
    frame_waiters = Queue.create ();
    trace = Adios_trace.Sink.null;
    trace_now = (fun () -> 0);
  }

let attach_trace t sink ~now =
  t.trace <- sink;
  t.trace_now <- now

let pages t = t.pages
let capacity t = t.capacity

let state t page =
  match Bytes.get t.state page with
  | '\000' -> Remote
  | '\001' -> Inflight
  | _ -> Present

let resident t = t.resident
let inflight t = t.inflight
let free_frames t = t.capacity - t.resident - t.inflight

let touch t page = Bytes.set t.referenced page '\001'
let mark_dirty t page = Bytes.set t.dirty page '\001'
let is_dirty t page = Bytes.get t.dirty page = '\001'

let start_fetch t page =
  if state t page <> Remote then invalid_arg "Pager.start_fetch: not remote";
  if free_frames t <= 0 then invalid_arg "Pager.start_fetch: no free frame";
  Bytes.set t.state page '\001';
  t.inflight <- t.inflight + 1

let install t page =
  if t.nfree = 0 then invalid_arg "Pager: no free slot";
  t.nfree <- t.nfree - 1;
  let slot = t.free_slots.(t.nfree) in
  t.ring.(slot) <- page;
  t.slot_of.(page) <- slot;
  Bytes.set t.state page '\002';
  Bytes.set t.referenced page '\001';
  t.resident <- t.resident + 1

let complete_fetch t page =
  if state t page <> Inflight then
    invalid_arg "Pager.complete_fetch: not inflight";
  t.inflight <- t.inflight - 1;
  install t page

let abort_fetch t page =
  if state t page <> Inflight then
    invalid_arg "Pager.abort_fetch: not inflight";
  t.inflight <- t.inflight - 1;
  Bytes.set t.state page '\000';
  (* the reserved frame is free again; someone may be parked on it *)
  match Queue.take_opt t.frame_waiters with
  | Some resume -> resume ()
  | None -> ()

let add_waiter t page resume =
  let existing = try Hashtbl.find t.waiters page with Not_found -> [] in
  Hashtbl.replace t.waiters page (resume :: existing)

let take_waiters t page =
  match Hashtbl.find_opt t.waiters page with
  | None -> []
  | Some l ->
    Hashtbl.remove t.waiters page;
    List.rev l

let pick_victim t =
  if t.resident = 0 then None
  else begin
    (* Two full sweeps suffice: the first clears referenced bits. *)
    let limit = 2 * t.capacity in
    let n = ref 0 and victim = ref (-1) in
    while !victim < 0 && !n < limit do
      let page = t.ring.(t.hand) in
      let next = t.hand + 1 in
      t.hand <- (if next = t.capacity then 0 else next);
      incr n;
      if page >= 0 then
        if Bytes.get t.referenced page = '\001' then
          Bytes.set t.referenced page '\000'
        else victim := page
    done;
    if !victim < 0 then None else Some !victim
  end

let evict t page =
  if state t page <> Present then invalid_arg "Pager.evict: not present";
  Adios_trace.Sink.emit t.trace ~ts:(t.trace_now ())
    ~kind:Adios_trace.Event.Evict ~req:Adios_trace.Event.none
    ~worker:Adios_trace.Event.reclaimer_actor ~page;
  let slot = t.slot_of.(page) in
  t.ring.(slot) <- -1;
  t.slot_of.(page) <- -1;
  t.free_slots.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  Bytes.set t.state page '\000';
  Bytes.set t.referenced page '\000';
  let dirty = Bytes.get t.dirty page = '\001' in
  Bytes.set t.dirty page '\000';
  t.resident <- t.resident - 1;
  (match Queue.take_opt t.frame_waiters with
  | Some resume -> resume ()
  | None -> ());
  dirty

let wait_frame t resume = Queue.push resume t.frame_waiters
let frame_waiters t = Queue.length t.frame_waiters

let prefill t page_list =
  List.iter
    (fun page ->
      if state t page = Remote && free_frames t > 0 then install t page)
    page_list

let register_metrics t reg ~labels =
  let module R = Adios_obs.Registry in
  R.gauge reg ~name:"adios_pager_resident" ~help:"Pages currently resident"
    ~labels (fun () -> float_of_int (resident t));
  R.gauge reg ~name:"adios_pager_inflight"
    ~help:"Pages with an in-flight fetch" ~labels (fun () ->
      float_of_int (inflight t));
  R.gauge reg ~name:"adios_pager_free_frames"
    ~help:"Frames neither resident nor reserved" ~labels (fun () ->
      float_of_int (free_frames t));
  R.gauge reg ~name:"adios_pager_frame_waiters"
    ~help:"Fault handlers parked waiting for a free frame" ~labels (fun () ->
      float_of_int (frame_waiters t))
