module App = Adios_core.App
module Request = Adios_core.Request
module Rng = Adios_engine.Rng

let kind_names = [| "NO"; "PAY"; "OS"; "DLV"; "SL" |]
let weights = [| 44.5; 43.1; 4.1; 4.2; 4.1 |]

type App.handles += Db of Tpcc.t

let txn_base_cycles = 1200 (* parse + begin/commit *)
let per_record_cycles = 220 (* index compute, field marshalling *)

(* request key packs (w, d, c) *)
let pack ~w ~d ~c = (((w * 10) + d) * 3000) + c
let unpack key =
  let c = key mod 3000 in
  let wd = key / 3000 in
  (wd / 10, wd mod 10, c)

let app ?(config = Tpcc.default_config) () =
  let pages = Tpcc.pages_needed config in
  let db = ref None in
  let build view = db := Some (Tpcc.create view config) in
  let gen rng =
    let kind = Rng.discrete rng weights in
    let w = Rng.int rng config.Tpcc.warehouses in
    let d = Rng.int rng config.Tpcc.districts_per_w in
    let c = Tpcc.nurand rng ~a:1023 ~x:0 ~y:(config.Tpcc.customers_per_d - 1) in
    {
      Request.kind;
      key = pack ~w ~d ~c;
      req_bytes = 96;
      reply_bytes = 128;
    }
  in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    let db = App.require "silo database" !db in
    let w, d, c = unpack spec.Request.key in
    ctx.App.compute txn_base_cycles;
    let tick () =
      ctx.App.compute per_record_cycles;
      ctx.App.checkpoint ()
    in
    let result =
      match spec.Request.kind with
      | 0 -> Tpcc.new_order ~tick db ctx.App.view ctx.App.rng ~w ~d ~c
      | 1 -> Tpcc.payment ~tick db ctx.App.view ctx.App.rng ~w ~d ~c
      | 2 -> Tpcc.order_status ~tick db ctx.App.view ~w ~d ~c
      | 3 -> Tpcc.delivery ~tick db ctx.App.view ~w
      | 4 ->
        Tpcc.stock_level ~tick db ctx.App.view ~w ~d
          ~threshold:(10 + Rng.int ctx.App.rng 11)
      | k -> App.bad_request "silo: unknown transaction kind %d" k
    in
    match result with Tpcc.Committed _ | Tpcc.Skipped -> ()
  in
  {
    App.name = "silo-tpcc";
    pages;
    page_size = App.page_size;
    build;
    save = (fun () -> Db (App.require "silo database" !db));
    adopt =
      (function
      | Db d -> db := Some (Tpcc.copy d)
      | _ -> invalid_arg "Silo: another app's handles");
    gen;
    handle;
    kinds = kind_names;
  }
