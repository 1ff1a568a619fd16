(** Open-addressing hash-table key-value store laid out in paged memory —
    the substrate under the Memcached adapter.

    Layout: a power-of-two bucket array of 8-byte entry pointers at the
    base of the arena, then a bump-allocated entry heap. Each entry holds
    [key_len | key bytes | value_len | value bytes]. A GET therefore
    touches the bucket page, the entry header/key page(s), and the value
    page(s) — the access pattern that makes Memcached's fault rate a
    multiple of the microbenchmark's. *)

type t

val create :
  Adios_mem.View.t ->
  keys:int ->
  key_bytes:int ->
  value_bytes:int ->
  t
(** Build the table and populate it with [keys] sequentially derived
    keys. The view should be a direct (non-faulting) view at build time. *)

val pages_needed : keys:int -> key_bytes:int -> value_bytes:int -> int
(** Arena pages the store requires; callers size the arena with this. *)

val key_string : t -> int -> string
(** The canonical key for index [i] (fixed [key_bytes] length). *)

val value_string : t -> int -> string
(** The value the build stores under key [i] (fixed [value_bytes]
    length). *)

val get : t -> Adios_mem.View.t -> string -> int
(** Probe the table through the given (possibly faulting) view,
    comparing each stored key where it lies: the address of the key's
    entry, or [-1] when the key is absent. *)

val read_value : t -> Adios_mem.View.t -> int -> int
(** [read_value t view entry] reads the entry's value as a GET does,
    touching its length word and its bytes, and returns its length. The
    bytes stay in the arena, at [value_addr t entry]. *)

val value_addr : t -> int -> int
(** Where an entry's value bytes start. *)

val put : t -> Adios_mem.View.t -> string -> string -> bool
(** Overwrite an existing key's value in place; [false] if absent or the
    new value is longer than the stored one. *)

val keys : t -> int
(** Number of keys inserted at build time. *)

val copy : t -> t
(** A second handle on the same table: its heap cursor and key count
    move independently of the original's. *)
