(* Layer microbenchmarks: each public call named in README.md's per-layer table,
   timed from here over a fixed operation count. Every case reports
   ns/op and minor words/op as the median of [reps] repetitions after
   one warm-up repetition. They run only in the traced run. *)

module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Link = Adios_rdma.Link
module Nic = Adios_rdma.Nic
module Verbs = Adios_rdma.Verbs
module Pager = Adios_mem.Pager
module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Context = Adios_unithread.Context
module Histogram = Adios_stats.Histogram
module Params = Adios_core.Params
module App = Adios_core.App
module Export = Adios_core.Export

type case = { ns_per_op : float; words_per_op : float }

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let reps = 5

(* [run n] performs [n] operations on state it set up itself; set-up
   cost is amortised over [n]. *)
let measure ~ops run =
  run (max 1 (ops / 10));
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Probe.now_ns () in
        run ops;
        let t1 = Probe.now_ns () in
        let w1 = Gc.minor_words () in
        (float_of_int (t1 - t0) /. float_of_int ops, (w1 -. w0) /. float_of_int ops))
  in
  {
    ns_per_op = median (List.map fst samples);
    words_per_op = median (List.map snd samples);
  }

let noop () = ()

(* [Sim.schedule] + [Sim.step] with 64 events pending; [delay] inside
   the 2^16-cycle wheel exercises the wheel, beyond it the far heap. *)
let engine_step ~delay n =
  let sim = Sim.create () in
  for i = 1 to 64 do
    Sim.schedule sim ~delay:(delay + i) noop
  done;
  for i = 1 to n do
    Sim.schedule sim ~delay:(delay + (i land 1023)) noop;
    ignore (Sim.step sim)
  done

let engine_cancel n =
  let sim = Sim.create () in
  for _ = 1 to n do
    Sim.cancel sim (Sim.timer_at sim (Sim.now sim + 5000) noop)
  done

(* One 4 KB READ: [Nic.post] -> serialization -> completion -> CQE
   drained from the CQ. *)
let rdma_post_cqe n =
  let sim = Sim.create () in
  let link () =
    Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead ()
  in
  let nic =
    Nic.create sim ~rx_link:(link ()) ~tx_link:(link ())
      ~wqe_overhead_cycles:Params.wqe_overhead_cycles
      ~base_latency_cycles:Params.rdma_base_latency_cycles ()
  in
  let qp = Nic.create_qp nic ~depth:Params.qp_depth in
  let cq = Verbs.Cq.create () in
  let drained = ref 0 in
  let on_cqe (_ : unit Verbs.completion) = incr drained in
  for _ = 1 to n do
    if not (Nic.post qp ~opcode:Verbs.Read ~bytes:4096 ~user:() ~cq) then
      failwith "rdma microbenchmark: QP full";
    while Verbs.Cq.depth cq = 0 && Sim.step sim do
      ()
    done;
    Verbs.Cq.drain cq on_cqe
  done;
  if !drained <> n then failwith "rdma microbenchmark: lost a completion"

(* Fault round trip at full residency: evict the CLOCK victim, then
   [start_fetch] -> [complete_fetch] a page that is remote. *)
let mem_fault n =
  let capacity = 1024 in
  let pages = 4 * capacity in
  let p = Pager.create ~pages ~capacity in
  Pager.prefill p (List.init capacity Fun.id);
  for i = 0 to n - 1 do
    let page = (capacity + i) mod pages in
    (match Pager.pick_victim p with
    | Some v -> ignore (Pager.evict p v)
    | None -> failwith "mem microbenchmark: nothing resident");
    Pager.start_fetch p page;
    Pager.complete_fetch p page
  done

let unithread_switch n =
  let f = Context.make_pingpong Context.Unithread in
  for _ = 1 to n do
    f ()
  done

let stats_record n =
  let h = Histogram.create () in
  for i = 1 to n do
    Histogram.record h ((i * 7919) land 0xFFFFF)
  done

(* [Arena.create] + [App.build]: testbed construction without the
   system, median seconds over [builds] fresh builds. *)
let app_build ~builds make =
  median
    (List.init builds (fun _ ->
         let app = make () in
         let t0 = Probe.now_ns () in
         let arena =
           Arena.create ~pages:app.App.pages ~page_size:app.App.page_size
         in
         app.App.build (View.direct arena);
         float_of_int (Probe.now_ns () - t0) *. 1e-9))

let csv_row_us result =
  let n = 2000 in
  let c =
    measure ~ops:n (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Export.csv_row result))
        done)
  in
  c.ns_per_op /. 1000.

let build_apps = [ "array"; "memcached"; "rocksdb-scan"; "silo" ]

type report = {
  cases : (string * case) list;
  builds : (string * float) list;
  csv_row_us : float;
}

(* [record name start_ns end_ns] receives one span per case. *)
let run ~record ~result =
  let span name f =
    let t0 = Probe.now_ns () in
    let v = f () in
    record name t0 (Probe.now_ns ());
    v
  in
  let case name ops f =
    (name, span ("layer:" ^ name) (fun () -> measure ~ops f))
  in
  let cases =
    [
      case "engine.step" 200_000 (engine_step ~delay:1000);
      case "engine.far_step" 200_000 (engine_step ~delay:(Clock.of_us 100.));
      case "engine.cancel" 200_000 engine_cancel;
      case "rdma.post_cqe" 50_000 rdma_post_cqe;
      case "mem.fault" 200_000 mem_fault;
      case "unithread.switch" 200_000 unithread_switch;
      case "stats.record" 1_000_000 stats_record;
    ]
  in
  let builds =
    List.map
      (fun name ->
        let make = Option.get (Adios_apps.Registry.find name) in
        ( name,
          span ("layer:apps.build." ^ name) (fun () -> app_build ~builds:3 make) ))
      build_apps
  in
  let csv_row_us = span "layer:core.csv_row" (fun () -> csv_row_us result) in
  { cases; builds; csv_row_us }
