(** IVF-Flat approximate nearest-neighbour index over paged memory — the
    substrate under the Faiss adapter.

    Vectors are uint8 (BIGANN-style), generated around [nlist] true
    centroids so the inverted-file structure is meaningful without an
    offline k-means pass. Each inverted list stores its members
    contiguously ([id:u64 | vector bytes]); a query scores the query
    vector against every centroid (resident, small), picks the [nprobe]
    nearest lists and scans them fully, maintaining a top-k heap — the
    long, page-sequential scans that make vector search latency
    fault-bound in Fig. 13. *)

type t

type params = {
  vectors : int;
  dim : int;  (** stored + computed vector bytes *)
  pad : int;  (** extra stored bytes per vector, paged but not computed —
                  lets the access pattern match a larger dim (BIGANN's
                  128) while bounding host CPU *)
  nlist : int;
  nprobe : int;
  noise : int;  (** per-component uniform noise around the centroid *)
}

val default_params : params
(** 100k vectors, 16 computed + 112 padded bytes (128 B footprint as in
    BIGANN), 128 lists, 4 probes. *)

val pages_needed : params -> int

val create : Adios_mem.View.t -> params -> seed:int -> t
(** Generate the dataset and build the index (direct view). *)

val params : t -> params

(** Pre-extracted centroids for query generation (the coarse quantizer
    is resident on the host in Faiss; extracting it once avoids faulting
    on the load-generator side). *)
type query_source

val query_source : t -> Adios_mem.View.t -> query_source
(** Snapshot the centroids through the given view (use a direct view at
    build time). *)

val query : query_source -> Adios_engine.Rng.t -> bytes * int
(** A query vector drawn near a random centroid; also returns that
    centroid's id (the query's true cluster, for recall tests). *)

val topk_add : int -> (int * int) list -> int -> int -> (int * int) list
(** [topk_add k top d id] inserts [(d, id)] into [top], at most [k]
    [(distance, id)] pairs sorted nearest first, after every entry at
    distance [d], and keeps the first [k]. A full [top] that [d] cannot
    enter comes back as it is, with nothing allocated. *)

val search :
  t ->
  Adios_mem.View.t ->
  ?tick:(int -> unit) ->
  k:int ->
  bytes ->
  (int * int) list
(** [search t view ~k q] returns up to [k] [(distance, vector id)] pairs,
    nearest first, scanning [nprobe] inverted lists. [tick n] fires after
    every scanned batch of [n] vectors (CPU-charge hook). Each stored
    vector is read where it lies.
    @raise Invalid_argument unless [q] is [dim] bytes long *)

val brute_force : t -> Adios_mem.View.t -> k:int -> bytes -> (int * int) list
(** Exact scan over all vectors, for recall measurement.
    @raise Invalid_argument unless the query is [dim] bytes long *)

val list_of_vector : t -> int -> int
(** The inverted list a vector id belongs to. *)
