(** PlainTable-style sorted store with range scans — the substrate under
    the RocksDB adapter.

    Records live in key order as fixed slots ([key:u64 | value]) in one
    data region, fronted by a hash index from key prefix to slot (the
    mmap-mode PlainTable read path: index probe, then loads straight
    from the mapped file). A GET touches the index page plus the slot
    pages; SCAN(n) iterates n consecutive slots, paging sequentially
    through the data region — the long-service-time request class that
    causes HOL blocking in Fig. 11. *)

type t

val create : Adios_mem.View.t -> keys:int -> value_bytes:int -> t
(** Build and populate with [keys] records of [value_bytes] values. *)

val pages_needed : keys:int -> value_bytes:int -> int
(** Arena pages required. *)

val keys : t -> int

val value_bytes : t -> int
(** Every value's length. *)

val get : t -> Adios_mem.View.t -> int -> int
(** Point lookup by key through the (possibly faulting) view. It touches
    the found value's bytes, as a read of them would, and returns their
    address ([value_bytes] long), or [-1] when the key is absent. *)

val scan :
  t -> Adios_mem.View.t -> ?on_row:(int -> int -> unit) -> int -> int -> int
(** [scan t view start n] visits up to [n] records from key [start] in
    key order, returning the count visited. Each record's value is
    touched like a {!get}'s, then [on_row key addr] sees the record's
    key and its value's address. *)

val expected_value : t -> int -> string
(** Canonical value for a key, for correctness checks. *)
