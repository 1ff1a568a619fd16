module App = Adios_core.App
module Request = Adios_core.Request
module Rng = Adios_engine.Rng

let parse_cycles = 800

type App.handles += Index of Ivf.t * Ivf.query_source

(* SIMD distance cost for a BIGANN-sized (128-byte) vector: the stored
   prefix is what we actually compute on; the charge models the full
   vector so service times scale like the paper's. *)
let cycles_per_vector = 16
let centroid_phase_cycles p = p.Ivf.nlist * cycles_per_vector

let app ?(params = Ivf.default_params) ?(k = 10) () =
  let pages = Ivf.pages_needed params in
  let index = ref None in
  let queries = ref None in
  let build view =
    let idx = Ivf.create view params ~seed:11 in
    index := Some idx;
    queries := Some (Ivf.query_source idx view)
  in
  let gen rng =
    {
      Request.kind = 0;
      key = Rng.int rng 1_000_000_000;
      req_bytes = 32 + params.Ivf.dim;
      reply_bytes = 64 + (k * 12);
    }
  in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    let idx = App.require "faiss index" !index in
    let qs = App.require "faiss query source" !queries in
    ctx.App.compute parse_cycles;
    let qrng = Rng.create spec.Request.key in
    let q, _true_list = Ivf.query qs qrng in
    ctx.App.compute (centroid_phase_cycles params);
    let results =
      Ivf.search idx ctx.App.view
        ~tick:(fun n ->
          ctx.App.compute (n * cycles_per_vector);
          ctx.App.checkpoint ())
        ~k q
    in
    match results with
    | [] -> App.bad_request "faiss: empty result set"
    | _ :: _ -> ()
  in
  {
    App.name = "faiss-ivf";
    pages;
    page_size = App.page_size;
    build;
    save =
      (fun () ->
        Index
          ( App.require "faiss index" !index,
            App.require "faiss query source" !queries ));
    adopt =
      (function
      (* neither changes after [build]: share them *)
      | Index (idx, qs) ->
        index := Some idx;
        queries := Some qs
      | _ -> invalid_arg "Faiss: another app's handles");
    gen;
    handle;
    kinds = [| "QUERY" |];
  }
