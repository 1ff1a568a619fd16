module App = Adios_core.App
module Request = Adios_core.Request
module View = Adios_mem.View
module Rng = Adios_engine.Rng

let value_of_index i =
  (* a cheap bijective scramble so replies are checkable *)
  Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L

(* CPU budget per request, calibrated so a local hit costs the paper's
   ~1.7 Kcycles end to end (incl. unithread creation, dispatch, reply). *)
let parse_cycles = 600
let finish_cycles = 700

let app ?(pages = 16_384) ?(page_size = App.page_size) () =
  let slots = pages * page_size / 8 in
  let build view =
    let arena = View.arena view in
    for i = 0 to slots - 1 do
      Adios_mem.Arena.set_u64 arena (i * 8) (value_of_index i)
    done
  in
  let gen rng =
    {
      Request.kind = 0;
      key = Rng.int rng slots;
      req_bytes = 64;
      reply_bytes = 64;
    }
  in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    ctx.App.compute parse_cycles;
    let v = View.read_u64 ctx.App.view (spec.Request.key * 8) in
    if v <> value_of_index spec.Request.key then
      App.bad_request "array_bench: corrupted value at key %d" spec.Request.key;
    ctx.App.checkpoint ();
    ctx.App.compute finish_cycles
  in
  {
    App.name = "array";
    pages;
    page_size;
    build;
    save = (fun () -> App.No_handles);
    adopt =
      (function
      | App.No_handles -> ()
      | _ -> invalid_arg "Array_bench: another app's handles");
    gen;
    handle;
    kinds = [| "GET" |];
  }
