(** TPC-C tables and transactions over paged memory — the workload under
    the Silo adapter (section 5.2, Fig. 12).

    All tables live in the arena: warehouses, districts, customers,
    items and stock as directly addressed fixed-size records; orders and
    order-lines in per-district rings; a per-district B+-tree indexes
    order ids. The five transaction profiles follow the spec's mix
    (New-Order 44.5%, Payment 43.1%, Order-Status 4.1%, Delivery 4.2%,
    Stock-Level 4.1%) with NURand customer/item selection, scaled down
    from the paper's SF=200 to fit a laptop arena at the same 20%
    local-DRAM ratio. *)

type config = {
  warehouses : int;
  districts_per_w : int;  (** 10 *)
  customers_per_d : int;  (** 3000 *)
  items : int;  (** 100,000 *)
  order_ring : int;  (** orders retained per district (power of two) *)
  lines_ring : int;  (** order lines retained per district *)
  preload_orders : int;  (** orders loaded per district before the run *)
  btree_pages_per_district : int;
}

val default_config : config
(** Four warehouses (~230 MB working set). *)

type t

val pages_needed : config -> int
(** Arena pages the database requires. *)

val create : Adios_mem.View.t -> config -> t
(** Lay out and populate the database (direct view). *)

val config : t -> config

val copy : t -> t
(** A second handle on the same database, with its own copy of every
    district's order-index handle ({!Btree.copy}). *)

(** Per-transaction results, for correctness checks. The [tick]
    callback fires once per record processed — the Silo adapter uses it
    to charge per-record CPU and to plant preemption checkpoints. *)
type result =
  | Committed of int  (** records touched *)
  | Skipped  (** e.g. Delivery with no undelivered order *)

val new_order :
  ?tick:(unit -> unit) ->
  t -> Adios_mem.View.t -> Adios_engine.Rng.t -> w:int -> d:int -> c:int ->
  result

val payment :
  ?tick:(unit -> unit) ->
  t -> Adios_mem.View.t -> Adios_engine.Rng.t -> w:int -> d:int -> c:int ->
  result

val order_status :
  ?tick:(unit -> unit) ->
  t -> Adios_mem.View.t -> w:int -> d:int -> c:int -> result

val delivery :
  ?tick:(unit -> unit) -> t -> Adios_mem.View.t -> w:int -> result

val stock_level :
  ?tick:(unit -> unit) ->
  t -> Adios_mem.View.t -> w:int -> d:int -> threshold:int -> result

val district_next_o_id : t -> Adios_mem.View.t -> w:int -> d:int -> int
(** Exposed for invariant tests (order ids are dense and increasing). *)

val customer_balance : t -> Adios_mem.View.t -> w:int -> d:int -> c:int -> int
(** Customer balance in cents; Payment decreases it, Delivery increases
    it — tests check conservation. *)

val warehouse_ytd : t -> Adios_mem.View.t -> w:int -> int
(** Warehouse year-to-date payment total (cents). *)

val nurand : Adios_engine.Rng.t -> a:int -> x:int -> y:int -> int
(** The spec's non-uniform random function NURand(A, x, y). *)
