(** Reference Raw-Ethernet channel: one packet record, one queue cell
    and two fresh closures per packet, each with its own TX-completion
    callback.

    This is the channel as it was before {!Adios_rdma.Raw_eth} kept its
    packets in a ring served by one serialization-end and one delivery
    event per channel, kept under the test suite as the oracle for that
    ring ([test_rdma]'s properties). Do not optimise this module — its
    value is that it stays simple and obviously correct. *)

type 'p t

val create :
  Adios_engine.Sim.t ->
  link:Adios_rdma.Link.t ->
  latency_cycles:int ->
  deliver:(rx_at:int -> 'p -> unit) ->
  'p t
(** Channel delivering ['p] packets to [deliver]. *)

val send : 'p t -> bytes:int -> ?on_tx_complete:(unit -> unit) -> 'p -> unit
(** Queue a packet; [on_tx_complete] fires when it has left the NIC. *)

val queued : 'p t -> int
(** Packets waiting for the wire. *)

val sent : 'p t -> int
(** Packets that have left the NIC. *)
