module Link = Adios_rdma.Link

type 'p packet = {
  bytes : int;
  payload : 'p;
  on_tx_complete : (unit -> unit) option;
}

type 'p t = {
  sim : Adios_engine.Sim.t;
  link : Link.t;
  latency : int;
  deliver : rx_at:int -> 'p -> unit;
  fifo : 'p packet Queue.t;
  mutable busy : bool;
  mutable sent : int;
}

let create sim ~link ~latency_cycles ~deliver =
  {
    sim;
    link;
    latency = latency_cycles;
    deliver;
    fifo = Queue.create ();
    busy = false;
    sent = 0;
  }

let rec kick t =
  if (not t.busy) && not (Queue.is_empty t.fifo) then begin
    let pkt = Queue.pop t.fifo in
    t.busy <- true;
    let cycles = Link.serialize_cycles t.link ~bytes:pkt.bytes in
    Link.occupy t.link ~cycles ~bytes:pkt.bytes;
    Adios_engine.Sim.schedule t.sim ~delay:cycles (fun () ->
        t.busy <- false;
        t.sent <- t.sent + 1;
        (match pkt.on_tx_complete with None -> () | Some f -> f ());
        Adios_engine.Sim.schedule t.sim ~delay:t.latency (fun () ->
            t.deliver ~rx_at:(Adios_engine.Sim.now t.sim) pkt.payload);
        kick t)
  end

let send t ~bytes ?on_tx_complete payload =
  Queue.push { bytes; payload; on_tx_complete } t.fifo;
  kick t

let queued t = Queue.length t.fifo
let sent t = t.sent
