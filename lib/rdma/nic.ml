(* A QP keeps its outstanding work requests in a ring whose capacity is
   [depth] rounded up to a power of two: sequence [s] lives in slot
   [s land mask], so no work request pays an integer division.
   Admission still refuses at [depth], so the ring's spare slots are
   never all used. Sequences are handed out in posting order and
   retired in posting order, so the outstanding ones are always the
   contiguous range [deliver_seq, next_seq), at most [depth] long, and
   no two share a slot. Inside that range, [deliver_seq, serve_seq)
   have left the QP for an engine (in service, on the wire, or parked)
   and [serve_seq, next_seq) still wait for one. *)
type 'a qp = {
  qp_id : int;
  depth : int;
  mask : int; (* ring capacity - 1 *)
  mutable next_seq : int; (* next posting sequence to hand out *)
  mutable serve_seq : int; (* oldest WR no engine has taken yet *)
  mutable deliver_seq : int; (* next sequence allowed to complete *)
  wr_id : int array;
  opcode : Verbs.opcode array;
  bytes : int array;
  posted_at : int array;
  mutable user : 'a array; (* sized by the first post, from its payload *)
  mutable cq : 'a Verbs.Cq.t array;
  lost : Bytes.t; (* '\001': the fabric lost this completion *)
  parked : Bytes.t;
      (* '\001': finished ahead of a predecessor, delivered when it lands *)
  mutable arrive : (unit -> unit) array; (* each slot's delivery event *)
  nic : 'a t;
}

and direction = Rx | Tx

and engine = {
  dir : direction;
  link : Link.t;
  mutable busy : bool;
  mutable cursor : int;
  mutable serving : int; (* index in [qps] of the QP whose WR is in service *)
  mutable slot : int; (* that WR's ring slot *)
  mutable finish : unit -> unit; (* the service-end event, made once *)
}

and 'a t = {
  sim : Adios_engine.Sim.t;
  wqe_overhead : int;
  base_latency : int;
  mutable qps : 'a qp array;
  rx : engine;
  tx : engine;
  mutable next_wr_id : int;
  mutable posted : int;
  mutable completed : int;
  mutable read_bytes : int;
  mutable dropped : int;
  mutable dead : bool;
  fault : Adios_fault.Injector.t option;
  trace : Adios_trace.Sink.t;
  trace_on : bool; (* cached [Sink.enabled trace] for the per-WR path *)
}

let outstanding qp = qp.next_seq - qp.deliver_seq

let direction_of = function Verbs.Read -> Rx | Verbs.Write | Verbs.Send -> Tx

(* Retire the oldest outstanding WR, in slot [slot]: push its CQE, or
   swallow a lost one. The sequence advances before the push, so a CQE
   handler that posts on this QP finds the slot free. *)
let[@zero_alloc] deliver qp slot =
  let nic = qp.nic in
  qp.deliver_seq <- qp.deliver_seq + 1;
  if Bytes.get qp.lost slot = '\001' then begin
    nic.dropped <- nic.dropped + 1;
    if nic.trace_on then
      Adios_trace.Sink.emit nic.trace
        ~ts:(Adios_engine.Sim.now nic.sim)
        ~kind:Adios_trace.Event.Fault_injected ~req:Adios_trace.Event.none
        ~worker:qp.qp_id ~page:qp.wr_id.(slot)
  end
  else begin
    nic.completed <- nic.completed + 1;
    let opcode = qp.opcode.(slot) and bytes = qp.bytes.(slot) in
    if opcode = Verbs.Read then nic.read_bytes <- nic.read_bytes + bytes;
    if nic.trace_on then
      Adios_trace.Sink.emit nic.trace
        ~ts:(Adios_engine.Sim.now nic.sim)
        ~kind:Adios_trace.Event.Cqe ~req:Adios_trace.Event.none
        ~worker:qp.qp_id ~page:qp.wr_id.(slot);
    Verbs.Cq.push qp.cq.(slot)
      (* lint: allow zero-alloc -- the completion record IS the CQ's payload: the documented budget is "nothing beyond the completion records themselves" *)
      {
        Verbs.wr_id = qp.wr_id.(slot);
        opcode;
        bytes;
        posted_at = qp.posted_at.(slot);
        completed_at = Adios_engine.Sim.now nic.sim;
        user = qp.user.(slot);
      }
  end

(* The delivery event of the WR in [slot], [base_latency] (plus any
   fault delay) after its serialization ended. A QP's completions are
   delivered in posting order: a WR that finishes ahead of a
   predecessor parks, and the predecessor's delivery releases every
   parked successor behind it. *)
let[@zero_alloc] arrive qp slot =
  if slot = qp.deliver_seq land qp.mask then begin
    deliver qp slot;
    while Bytes.get qp.parked (qp.deliver_seq land qp.mask) = '\001' do
      let next = qp.deliver_seq land qp.mask in
      Bytes.set qp.parked next '\000';
      deliver qp next
    done
  end
  else Bytes.set qp.parked slot '\001'

(* The next QP (round-robin from the engine cursor) whose head WR
   travels in this engine's direction, as an index into [qps]; -1 if
   none. The cursor and [i] both lie in [0, n), so one compare wraps
   their sum. *)
let[@zero_alloc] rec next_qp nic engine i =
  let n = Array.length nic.qps in
  if i = n then -1
  else begin
    let q = engine.cursor + i in
    let q = if q >= n then q - n else q in
    let qp = nic.qps.(q) in
    if
      qp.serve_seq < qp.next_seq
      && direction_of qp.opcode.(qp.serve_seq land qp.mask) = engine.dir
    then begin
      engine.cursor <- (if q + 1 = n then 0 else q + 1);
      q
    end
    else next_qp nic engine (i + 1)
  end

(* Start serializing the next WR, if the engine is free and one is
   waiting. *)
let[@zero_alloc] serve nic engine =
  if not engine.busy then begin
    let q = next_qp nic engine 0 in
    if q >= 0 then begin
      let qp = nic.qps.(q) in
      let slot = qp.serve_seq land qp.mask in
      qp.serve_seq <- qp.serve_seq + 1;
      engine.busy <- true;
      engine.serving <- q;
      engine.slot <- slot;
      let bytes = qp.bytes.(slot) in
      let service =
        nic.wqe_overhead + Link.serialize_cycles engine.link ~bytes
      in
      Link.occupy engine.link ~cycles:service ~bytes;
      Adios_engine.Sim.schedule nic.sim ~delay:service engine.finish
    end
  end

(* The fault fabric's verdict on the completion of the WR in [slot], as
   extra delivery cycles, or -1 if the completion is lost. Only a NIC
   with an injector asks for it. *)
let[@cold][@inline never] fault_delay nic inj qp slot =
  match
    Adios_fault.Injector.on_completion inj
      ~now:(Adios_engine.Sim.now nic.sim)
      ~is_read:(qp.opcode.(slot) = Verbs.Read)
      ~qp:qp.qp_id ~base_cycles:nic.base_latency
  with
  | Adios_fault.Injector.Deliver -> 0
  | Adios_fault.Injector.Drop -> -1
  | Adios_fault.Injector.Delay d -> d

(* The service-end event: free the engine, decide the completion's fate
   and schedule its delivery. *)
let[@zero_alloc] finish_service nic engine =
  let qp = nic.qps.(engine.serving) and slot = engine.slot in
  engine.busy <- false;
  (* the pop may have exposed a head WR travelling the other way: the
     sibling engine must look too *)
  serve nic (match engine.dir with Rx -> nic.tx | Tx -> nic.rx);
  (* the fault fabric decides this completion's fate now, in
     serialization order, so a given fault seed replays byte-identically
     whatever the host does in between *)
  let extra =
    match nic.fault with None -> 0 | Some inj -> fault_delay nic inj qp slot
  in
  (* a dead node never answers: its in-flight and future WRs all take
     the lost-completion path, so the host's timeout/retry machinery is
     the one recovery protocol for both fabrics. A lost completion still
     advances the QP bookkeeping at its nominal delivery time — the
     slot frees, successors may complete — but no CQE is pushed: the
     initiator only learns of the loss through its own timeout. *)
  Bytes.set qp.lost slot (if extra < 0 || nic.dead then '\001' else '\000');
  Adios_engine.Sim.schedule nic.sim
    ~delay:(nic.base_latency + max 0 extra)
    qp.arrive.(slot);
  serve nic engine

let create ?(trace = Adios_trace.Sink.null) ?fault ?(wr_id_base = 0) sim
    ~rx_link ~tx_link ~wqe_overhead_cycles ~base_latency_cycles () =
  let engine dir link =
    {
      dir;
      link;
      busy = false;
      cursor = 0;
      serving = 0;
      slot = 0;
      finish = ignore;
    }
  in
  let nic =
    {
      sim;
      wqe_overhead = wqe_overhead_cycles;
      base_latency = base_latency_cycles;
      qps = [||];
      rx = engine Rx rx_link;
      tx = engine Tx tx_link;
      next_wr_id = wr_id_base;
      posted = 0;
      completed = 0;
      read_bytes = 0;
      dropped = 0;
      dead = false;
      fault;
      trace;
      trace_on = Adios_trace.Sink.enabled trace;
    }
  in
  nic.rx.finish <- (fun () -> finish_service nic nic.rx);
  nic.tx.finish <- (fun () -> finish_service nic nic.tx);
  nic

(* The smallest power of two at or above [n] (1 for [n <= 1]). *)
let ring_capacity n =
  let c = ref 1 in
  while !c < n do
    c := 2 * !c
  done;
  !c

let create_qp nic ~depth =
  let slots = ring_capacity depth in
  let qp =
    {
      qp_id = Array.length nic.qps;
      depth;
      mask = slots - 1;
      next_seq = 0;
      serve_seq = 0;
      deliver_seq = 0;
      wr_id = Array.make slots 0;
      opcode = Array.make slots Verbs.Read;
      bytes = Array.make slots 0;
      posted_at = Array.make slots 0;
      user = [||];
      cq = [||];
      lost = Bytes.make slots '\000';
      parked = Bytes.make slots '\000';
      arrive = [||];
      nic;
    }
  in
  qp.arrive <- Array.init slots (fun slot () -> arrive qp slot);
  nic.qps <- Array.append nic.qps [| qp |];
  qp

(* The payload rings need a value to start from: the first post's. *)
let[@cold][@inline never] size_payloads qp user cq =
  qp.user <- Array.make (qp.mask + 1) user;
  qp.cq <- Array.make (qp.mask + 1) cq

let[@zero_alloc] post qp ~opcode ~bytes ~user ~cq =
  let nic = qp.nic in
  if outstanding qp >= qp.depth then false
  else begin
    if Array.length qp.user = 0 then size_payloads qp user cq;
    nic.next_wr_id <- nic.next_wr_id + 1;
    nic.posted <- nic.posted + 1;
    if nic.trace_on then
      Adios_trace.Sink.emit nic.trace
        ~ts:(Adios_engine.Sim.now nic.sim)
        ~kind:Adios_trace.Event.Wqe_post ~req:Adios_trace.Event.none
        ~worker:qp.qp_id ~page:nic.next_wr_id;
    let slot = qp.next_seq land qp.mask in
    qp.next_seq <- qp.next_seq + 1;
    qp.wr_id.(slot) <- nic.next_wr_id;
    qp.opcode.(slot) <- opcode;
    qp.bytes.(slot) <- bytes;
    qp.posted_at.(slot) <- Adios_engine.Sim.now nic.sim;
    qp.user.(slot) <- user;
    qp.cq.(slot) <- cq;
    serve nic (match direction_of opcode with Rx -> nic.rx | Tx -> nic.tx);
    true
  end

let fail nic = nic.dead <- true
let posted nic = nic.posted
let completed nic = nic.completed
let read_bytes nic = nic.read_bytes
let dropped_completions nic = nic.dropped

let register_metrics nic reg ~labels =
  let module R = Adios_obs.Registry in
  R.counter reg ~name:"adios_nic_posted_total"
    ~help:"Work requests accepted by the NIC" ~labels (fun () -> posted nic);
  R.counter reg ~name:"adios_nic_completed_total"
    ~help:"Completions delivered by the NIC" ~labels (fun () -> completed nic);
  R.counter reg ~name:"adios_nic_read_bytes_total"
    ~help:"Payload bytes fetched with READ work requests" ~labels (fun () ->
      read_bytes nic);
  R.counter reg ~name:"adios_nic_dropped_completions_total"
    ~help:"Completions lost by the fault injector" ~labels (fun () ->
      dropped_completions nic)
