(** Raw-Ethernet packet channel (NVIDIA OFED Raw Ethernet feature).

    A unidirectional kernel-bypass packet path: the sender posts packets
    that serialize in FIFO order on the channel's link and are delivered
    to the receiver's handler [latency] cycles later, carrying the NIC
    hardware RX timestamp (simply the delivery time here). The TX
    completion fires when serialization ends and can be routed anywhere —
    the hook polling delegation uses to raise reply completions on the
    dispatcher's CQ instead of the worker's.

    Packets wait in a ring from send to delivery. Serialization ends come
    in send order and every delivery lands a fixed latency after its
    serialization end, so the channel serves every packet with the same
    two events, made once: sending, serializing and delivering a packet
    allocates nothing once the ring is large enough (it doubles when
    full). *)

type 'p t

val create :
  ?on_tx_complete:('p -> unit) ->
  Adios_engine.Sim.t ->
  link:Link.t ->
  latency_cycles:int ->
  deliver:(rx_at:int -> 'p -> unit) ->
  'p t
(** Channel delivering ['p] packets to [deliver]. [on_tx_complete]
    models the TX CQE: it gets each packet's payload when the packet has
    left the NIC, before its delivery is scheduled (default: nothing). *)

val send : 'p t -> bytes:int -> 'p -> unit
(** Queue a packet of [bytes] payload. *)

val queued : 'p t -> int
(** Packets waiting for the wire (TX queue depth). *)

val sent : 'p t -> int
(** Total packets delivered to the wire. *)
