module Sim = Adios_engine.Sim

(* Packets wait in a ring of parallel arrays from [send] until their
   delivery, in send order: the [len] packets from [head] are first the
   [out] whose serialization has started (the newest of them is on the
   link while [busy]), then the ones queued for it. Serialization ends
   come strictly in send order, and each delivery lands [latency]
   cycles after its serialization end, so deliveries happen in send
   order too. The channel therefore needs one serialization-end event
   ([serialized]) and one delivery event ([arrive]), each made once and
   scheduled once per packet: the first always acts on the newest
   started packet, the second on the packet at [head]. *)
type 'p t = {
  sim : Sim.t;
  link : Link.t;
  latency : int;
  deliver : rx_at:int -> 'p -> unit;
  on_tx_complete : 'p -> unit;
  mutable bytes : int array;
  mutable payload : 'p array;  (** sized by the first send, from its payload *)
  mutable head : int;
  mutable len : int;
  mutable out : int;
  mutable busy : bool;
  mutable sent : int;
  mutable serialized : unit -> unit;
  mutable arrive : unit -> unit;
}

(* The ring's capacity is a power of two, so a position is masked. *)
let first_capacity = 16

let[@zero_alloc] kick t =
  if (not t.busy) && t.out < t.len then begin
    let i = (t.head + t.out) land (Array.length t.bytes - 1) in
    t.out <- t.out + 1;
    t.busy <- true;
    let bytes = t.bytes.(i) in
    let cycles = Link.serialize_cycles t.link ~bytes in
    Link.occupy t.link ~cycles ~bytes;
    Sim.schedule t.sim ~delay:cycles t.serialized
  end

(* The newest started packet has left the NIC: raise its TX completion,
   schedule its delivery, and start the next one. *)
let[@zero_alloc] serialization_end t =
  let i = (t.head + t.out - 1) land (Array.length t.bytes - 1) in
  t.busy <- false;
  t.sent <- t.sent + 1;
  t.on_tx_complete t.payload.(i);
  Sim.schedule t.sim ~delay:t.latency t.arrive;
  kick t

let[@zero_alloc] delivery t =
  let i = t.head in
  t.head <- (i + 1) land (Array.length t.bytes - 1);
  t.len <- t.len - 1;
  t.out <- t.out - 1;
  t.deliver ~rx_at:(Sim.now t.sim) t.payload.(i)

let create ?(on_tx_complete = ignore) sim ~link ~latency_cycles ~deliver =
  let t =
    {
      sim;
      link;
      latency = latency_cycles;
      deliver;
      on_tx_complete;
      bytes = [||];
      payload = [||];
      head = 0;
      len = 0;
      out = 0;
      busy = false;
      sent = 0;
      serialized = ignore;
      arrive = ignore;
    }
  in
  t.serialized <- (fun () -> serialization_end t);
  t.arrive <- (fun () -> delivery t);
  t

(* A full ring doubles, unrolled to start at position 0; the first send
   sizes it from its payload. *)
let[@cold][@inline never] grow t payload =
  let cap = Array.length t.bytes in
  let ncap = if cap = 0 then first_capacity else 2 * cap in
  let bytes = Array.make ncap 0 and payloads = Array.make ncap payload in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) land (cap - 1) in
    bytes.(k) <- t.bytes.(i);
    payloads.(k) <- t.payload.(i)
  done;
  t.bytes <- bytes;
  t.payload <- payloads;
  t.head <- 0

let[@zero_alloc] send t ~bytes payload =
  if t.len = Array.length t.bytes then grow t payload;
  let i = (t.head + t.len) land (Array.length t.bytes - 1) in
  t.bytes.(i) <- bytes;
  t.payload.(i) <- payload;
  t.len <- t.len + 1;
  kick t

let queued t = t.len - t.out
let sent t = t.sent
