(** Application-facing paged memory.

    A view pairs the data arena with a [touch] hook supplied by the
    runtime. Every typed access first touches the byte range (which may
    block the calling unithread on a page fault — busy-waiting or
    yielding, depending on the system under test) and then performs the
    real load/store on the arena. Applications are therefore written
    once and run unmodified on every system, like the paper's apps that
    only add a remote-memory mmap flag. *)

type t

val make :
  Arena.t -> touch:(addr:int -> len:int -> write:bool -> unit) -> t
(** View with the runtime's paging hook. *)

val direct : Arena.t -> t
(** View whose accesses never fault — used to build datasets before the
    clock starts. *)

val arena : t -> Arena.t

val touch_range : t -> addr:int -> len:int -> write:bool -> unit
(** Touch without data transfer (e.g. bulk scans that only inspect). *)

val read_u8 : t -> int -> int
val read_u64 : t -> int -> int64
val read_int : t -> int -> int

val read_blob : t -> int -> int -> bytes
(** A copy of the bytes, for snapshots taken outside the clock. A
    request reads in place, with the functions below, and charges its
    copies in cycles. *)

val equal_string : t -> int -> int -> string -> bool
(** [equal_string t addr len s] touches [len] bytes at [addr], as a
    read of them would, and tells whether they are [s] (never when
    [len <> String.length s]), comparing them where they lie. *)

val sq_distance : t -> int -> bytes -> int
(** [sq_distance t addr q] touches the [Bytes.length q] bytes at [addr]
    and returns their squared Euclidean distance to [q], each byte an
    unsigned component, read where they lie. *)

val write_u8 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit
val write_int : t -> int -> int -> unit
val write_string : t -> int -> string -> unit
