(** B+-tree with page-sized nodes over paged memory — the ordered index
    under Silo's tables.

    Every node occupies exactly one 4 KB page inside a caller-provided
    region of the arena, so a root-to-leaf descent touches [height]
    pages and an insert dirties the split path — giving the OLTP
    workload its characteristic mixed read/write fault pattern. Keys and
    values are 63-bit integers (values are record addresses). Leaves are
    chained for range scans. *)

type t

val create : Adios_mem.View.t -> region_base:int -> region_pages:int -> t
(** Empty tree allocating its nodes from the given page region.
    [region_base] must be page-aligned. *)

val insert : t -> Adios_mem.View.t -> key:int -> value:int -> unit
(** Insert or overwrite.
    @raise Failure if the node region is exhausted. *)

val find : t -> Adios_mem.View.t -> int -> int option
(** Point lookup. *)

val fold_range :
  t -> Adios_mem.View.t -> lo:int -> hi:int ->
  init:'a -> f:('a -> key:int -> value:int -> 'a) -> 'a
(** In-order fold over keys in [\[lo, hi\]]. *)

val last_below : t -> Adios_mem.View.t -> int -> (int * int) option
(** Greatest (key, value) with key <= the bound; [None] if the tree holds
    nothing at or below it. *)

val copy : t -> t
(** A second handle on the same nodes. Its root, node allocator, size
    and height move independently of the original's, so inserting
    through the copy leaves the original describing the tree as it was
    (the node bytes are the arena's business). *)

val size : t -> int
(** Number of live keys. *)

val height : t -> int
(** Levels from root to leaf (1 = root is a leaf). *)

val pages_used : t -> int
(** Node pages allocated so far. *)
