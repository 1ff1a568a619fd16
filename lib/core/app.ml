(* A malformed or unsatisfiable request. Handlers raise it (through
   [bad_request] / [require]) instead of aborting the process; the
   worker catches it at the task boundary and surfaces the failure as an
   error reply through [Request.errored], so request conservation holds
   and one bad request cannot take down the simulation. *)
exception Bad_request of string

let bad_request fmt = Printf.ksprintf (fun msg -> raise (Bad_request msg)) fmt

let require what = function
  | Some v -> v
  | None -> raise (Bad_request (what ^ ": not initialised"))

type ctx = {
  view : Adios_mem.View.t;
  compute : int -> unit;
  checkpoint : unit -> unit;
  rng : Adios_engine.Rng.t;
}

type handles = ..
type handles += No_handles

type t = {
  name : string;
  pages : int;
  page_size : int;
  build : Adios_mem.View.t -> unit;
  save : unit -> handles;
  adopt : handles -> unit;
  gen : Adios_engine.Rng.t -> Request.spec;
  handle : ctx -> Request.spec -> unit;
  kinds : string array;
}

let page_size = 4096

type image = { arena : Adios_mem.Arena.t; handles : handles }

let build_image app =
  let arena =
    Adios_mem.Arena.create ~pages:app.pages ~page_size:app.page_size
  in
  app.build (Adios_mem.View.direct arena);
  { arena; handles = app.save () }
