(** Backing store for application data.

    One contiguous byte arena stands in for the application's
    mmap-ed address space. The paging layer ({!Pager}) decides *when* an
    access may proceed (hit, fault, fetch); the arena holds the actual
    bytes so applications compute real answers regardless of residency.
    Addresses are byte offsets from 0.

    A sweep builds an app's dataset into one arena and runs many points
    on it. An undo journal keeps those points from seeing each other's
    writes: once {!journal} is on, the first write to a page saves the
    page's bytes, and {!rollback} puts them back. The five write
    functions keep the journal; reads never look at it. *)

type t

val create : pages:int -> page_size:int -> t
(** Arena of [pages * page_size] zeroed bytes, with no journal. *)

val journal : t -> unit
(** Start the undo journal (no-op if it is on). From here, the first
    write to each page since the last {!rollback} copies the page
    first, so the journal grows by one page per page written. *)

val rollback : t -> unit
(** Restore every page written since {!journal} or the previous
    rollback, byte for byte, and keep journaling. A second rollback in a
    row, or a rollback without a journal, does nothing. *)

val pages : t -> int
val page_size : t -> int
val size_bytes : t -> int

val page_of_addr : t -> int -> int
(** Page index containing a byte address. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u64 : t -> int -> int64
(** Little-endian load; [addr] need not be aligned. *)

val set_u64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** [get_u64] narrowed to int (our values fit 63 bits). *)

val set_int : t -> int -> int -> unit

val read_blob : t -> int -> int -> bytes
(** [read_blob t addr len] copies [len] bytes out. *)

val write_blob : t -> int -> bytes -> unit
(** [write_blob t addr b] copies [b] in at [addr]. *)

val blit_string : t -> int -> string -> unit
(** Write a string at [addr]. *)

val equal_string : t -> int -> int -> string -> bool
(** [equal_string t addr len s]: the [len] bytes at [addr] are [s]
    ([false] when [len] is not [String.length s]). Compares in place:
    nothing is copied.
    @raise Invalid_argument when the range is outside the arena *)

val sq_distance : t -> int -> bytes -> int
(** [sq_distance t addr q]: the squared Euclidean distance between [q]
    and the [Bytes.length q] bytes at [addr], each byte an unsigned
    component, computed in place.
    @raise Invalid_argument when the range is outside the arena *)
