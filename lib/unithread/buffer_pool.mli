(** Pre-allocated request buffers (Fig. 4).

    Adios allocates, once, a fixed population of buffers each holding a
    request's packet payload, unithread context and universal stack
    back-to-back — 4 KB per request instead of Shinjuku's 12 KB (payload
    + context, user stack, and exception stack as three 4 KB pieces).
    The pool is the admission limit for bursty arrivals: when it is
    empty the dispatcher must drop. *)

type layout = {
  name : string;
  mtu : int;  (** packet payload area at the head of the buffer *)
  ctx_bytes : int;  (** saved context following the payload *)
  stack_bytes : int;  (** (universal) stack after the context *)
  extra_stacks : int;  (** separate stacks Shinjuku needs; 0 for Adios *)
  stack_unit : int;  (** size of each extra stack *)
}

val unithread_layout : layout
(** 1500 B MTU + 80 B context + universal stack in one 4 KB buffer. *)

val shinjuku_layout : layout
(** 4 KB payload+context plus two further 4 KB stacks (12 KB total). *)

val bytes_per_buffer : layout -> int
(** Total memory one request consumes under the layout. *)

type t

val create : count:int -> layout -> t
(** Pool of [count] buffers (the compute node's is
    [Params.buffer_count], 131,072). Per buffer it allocates one byte,
    the in-use flag. *)

val alloc : t -> int
(** Take a buffer id, or [-1] when the pool is exhausted: the most
    recently freed id, or else the lowest id never handed out. An id is
    an int, not an option, so admitting a request allocates nothing. *)

val free : t -> int -> unit
(** Return a buffer.
    @raise Invalid_argument on double free. *)

val count : t -> int
val in_use : t -> int
val high_watermark : t -> int
(** Peak simultaneous allocation observed. *)

val total_bytes : t -> int
(** Memory footprint of the whole pool under its layout. *)
