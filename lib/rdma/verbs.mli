(** ibverbs-like vocabulary: work-request opcodes, completion entries and
    completion queues.

    A CQ is a plain FIFO of completions plus an optional notify hook; the
    hook models the "completion event raised in a CQ wakes its poller"
    semantic that polling delegation (Fig. 6) relies on: a work request
    posted on one QP can direct its completion to {e any} CQ. *)

type opcode = Read | Write | Send

type 'a completion = {
  wr_id : int;
  opcode : opcode;
  bytes : int;
  posted_at : int;
  completed_at : int;
  user : 'a;  (** caller context attached at post time *)
}

module Cq : sig
  type 'a t

  val create : unit -> 'a t
  (** Empty CQ with no notify hook. *)

  val set_notify : 'a t -> (unit -> unit) -> unit
  (** Install the wakeup hook invoked on every completion arrival. *)

  val push : 'a t -> 'a completion -> unit
  (** Deliver a completion (NIC side). *)

  val drain : 'a t -> ('a completion -> unit) -> unit
  (** [drain t f] applies [f] to every queued completion in arrival
      order, without building a list. Completions pushed by [f] itself
      (e.g. a handler that posts a synchronously-completing WR) are
      drained in the same pass. This is the hot-path variant of
      {!poll}. *)

  val poll : 'a t -> max:int -> 'a completion list
  (** Drain up to [max] completions in arrival order. *)

  val depth : 'a t -> int
  (** Completions currently waiting to be polled. *)
end
