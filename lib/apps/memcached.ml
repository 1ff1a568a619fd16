module App = Adios_core.App
module Request = Adios_core.Request
module Rng = Adios_engine.Rng

(* CPU model: protocol parse, hash, key compare, value memcpy. *)
let parse_cycles = 500
let hash_cycles = 120
let compare_cycles = 100
let copy_cycles_per_byte = 0.08 (* ~25 GB/s memcpy at 2 GHz *)

let key_bytes = 50
let kind_get = 0
let kind_set = 1

type App.handles += Store of Kvstore.t

let app ?keys ?(value_bytes = 128) ?(zipf_theta = 0.) ?(set_fraction = 0.) () =
  let keys =
    match keys with
    | Some k -> k
    | None ->
      (* size the store to ~64 MB of entries *)
      64 * 1024 * 1024 / (8 + key_bytes + value_bytes + 58)
  in
  let pages = Kvstore.pages_needed ~keys ~key_bytes ~value_bytes in
  let store = ref None in
  let build view =
    store := Some (Kvstore.create view ~keys ~key_bytes ~value_bytes)
  in
  let zipf =
    if zipf_theta > 0. then Some (Rng.Zipf.create ~n:keys ~theta:zipf_theta)
    else None
  in
  let gen rng =
    let key =
      match zipf with
      | Some z -> Rng.Zipf.sample rng z
      | None -> Rng.int rng keys
    in
    if set_fraction > 0. && Rng.uniform rng < set_fraction then
      {
        Request.kind = kind_set;
        key;
        req_bytes = 24 + key_bytes + value_bytes;
        reply_bytes = 32;
      }
    else
      {
        Request.kind = kind_get;
        key;
        req_bytes = 24 + key_bytes;
        reply_bytes = 32 + value_bytes;
      }
  in
  (* every SET stores the same bytes *)
  let fresh = String.make value_bytes 'u' in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    let store = App.require "memcached store" !store in
    ctx.App.compute parse_cycles;
    ctx.App.compute hash_cycles;
    (* the only preemption probe a straight-line GET has sits at the
       protocol-parse boundary, before the paged lookup *)
    ctx.App.checkpoint ();
    let key = Kvstore.key_string store spec.Request.key in
    if spec.Request.kind = kind_set then begin
      ctx.App.compute
        (int_of_float (copy_cycles_per_byte *. float_of_int value_bytes));
      if not (Kvstore.put store ctx.App.view key fresh) then
        App.bad_request "memcached: SET on missing key %d" spec.Request.key
    end
    else
      let entry = Kvstore.get store ctx.App.view key in
      if entry < 0 then
        App.bad_request "memcached: key %d vanished" spec.Request.key;
      (* the value is read where it lies; its copy into the reply is
         charged in cycles *)
      let len = Kvstore.read_value store ctx.App.view entry in
      ctx.App.compute compare_cycles;
      ctx.App.compute (int_of_float (copy_cycles_per_byte *. float_of_int len))
  in
  {
    App.name = Printf.sprintf "memcached-%dB" value_bytes;
    pages;
    page_size = App.page_size;
    build;
    save = (fun () -> Store (App.require "memcached store" !store));
    adopt =
      (function
      | Store s -> store := Some (Kvstore.copy s)
      | _ -> invalid_arg "Memcached: another app's handles");
    gen;
    handle;
    kinds = [| "GET"; "SET" |];
  }
