module App = Adios_core.App
module Request = Adios_core.Request
module Rng = Adios_engine.Rng

let kind_get = 0
let kind_scan = 1

type App.handles += Table of Scanstore.t

let parse_cycles = 1000
let seek_cycles = 1600 (* index probe + PlainTable decode *)
let next_cycles = 140 (* iterator advance per row *)
let copy_cycles_per_byte = 0.08

let app ?keys ?(value_bytes = 1024) ?(scan_fraction = 0.01)
    ?(scan_length = 100) () =
  let keys =
    match keys with
    | Some k -> k
    | None -> 64 * 1024 * 1024 / (8 + value_bytes)
  in
  let pages = Scanstore.pages_needed ~keys ~value_bytes in
  let store = ref None in
  let build view = store := Some (Scanstore.create view ~keys ~value_bytes) in
  let gen rng =
    if Rng.uniform rng < scan_fraction then
      {
        Request.kind = kind_scan;
        key = Rng.int rng (max 1 (keys - scan_length));
        req_bytes = 40;
        reply_bytes = 64 + (scan_length * 16);
      }
    else
      {
        Request.kind = kind_get;
        key = Rng.int rng keys;
        req_bytes = 40;
        reply_bytes = 48 + value_bytes;
      }
  in
  let copy_cost bytes = int_of_float (copy_cycles_per_byte *. float_of_int bytes) in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    let store = App.require "rocksdb store" !store in
    (* values are read where they lie; copying one into the reply is
       charged in cycles *)
    let value_copy = copy_cost (Scanstore.value_bytes store) in
    ctx.App.compute parse_cycles;
    if spec.Request.kind = kind_get then begin
      (* straight-line GET: the probe is before the paged read *)
      ctx.App.checkpoint ();
      ctx.App.compute seek_cycles;
      if Scanstore.get store ctx.App.view spec.Request.key < 0 then
        App.bad_request "rocksdb: missing key %d" spec.Request.key;
      ctx.App.compute value_copy
    end
    else begin
      ctx.App.compute seek_cycles;
      let visited =
        Scanstore.scan store ctx.App.view
          ~on_row:(fun _key _value ->
            ctx.App.compute (next_cycles + value_copy);
            ctx.App.checkpoint ())
          spec.Request.key scan_length
      in
      if visited = 0 then
        App.bad_request "rocksdb: empty scan at key %d" spec.Request.key
    end
  in
  {
    App.name = Printf.sprintf "rocksdb-%dB" value_bytes;
    pages;
    page_size = App.page_size;
    build;
    save = (fun () -> Table (App.require "rocksdb store" !store));
    adopt =
      (function
      (* a Scanstore.t never changes after [create]: share it *)
      | Table s -> store := Some s
      | _ -> invalid_arg "Rocksdb: another app's handles");
    gen;
    handle;
    kinds = [| "GET"; "SCAN" |];
  }
