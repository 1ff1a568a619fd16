(* Per-point host measurements, taken in the process (or domain) that runs
   the point.

   A sweep point runs [Runner.run cfg (make_app ()) ...] wherever the
   sweep backend put it: inline, in a forked worker, or on a pool domain.
   The probe reaches it through the two public hooks [Sweep.run] offers:
   the spec's app factory, which it wraps, and [cfg_tweak], which it
   leaves as the identity and only reads to learn which point is
   starting (the per-point seed identifies it). The wrapped [App.t]
   stamps the first [gen] call — the end of testbed construction — and
   every return from [gen] or [handle] afterwards, so the last stamp
   is the point's last application callback.

   Stamps go into a table of ints in shared anonymous memory, one row
   per point, created before the sweep starts. A forked worker writes
   its row in place and the coordinator reads it after the sweep: the
   benchmark's own channel, independent of what the sweep marshals
   back. All hot-path probes are noalloc externals storing untagged
   ints, so the instrumentation adds no words to the allocation it
   measures. *)

module Spec = Adios_exp.Spec
module App = Adios_core.App
module Config = Adios_core.Config
module A1 = Bigarray.Array1

external now_ns : unit -> (int[@untagged])
  = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

external maxrss_kb : unit -> (int[@untagged])
  = "pb_maxrss_kb_byte" "pb_maxrss_kb"
[@@noalloc]

external shared_ints : int -> (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
  = "pb_shared_ints"

external speed_sample_ns : (int[@untagged]) -> (int[@untagged])
  = "pb_speed_sample_ns_byte" "pb_speed_sample_ns"
[@@noalloc]

(* Host speed. Identical passes on a 2-vCPU Xeon VM took anywhere from
   9.5 s to 19 s: the host's speed flips between regimes every 10-30 s,
   slowing setup and simulation alike.
   Each point therefore starts by timing [speed_ops] operations of a
   fixed C kernel (about 6 ms), and its host times are also reported
   scaled by [reference_ns] / that sample: seconds at the speed the
   kernel had in a quiet period on that host. *)
let speed_ops = 80_000
let reference_ns = 5_600_000

(* row layout *)
let f_start = 0 (* Runner.run about to be entered: factory or cfg_tweak *)
let f_gen = 1 (* first App.gen: testbed built *)
let f_last = 2 (* latest return from gen/handle *)
let f_end = 3 (* Runner.run returned; only observable in-process *)
let f_words_gen = 4
let f_words_last = 5
let f_rss_kb = 6 (* peak RSS of the running process, sampled *)
let f_pid = 7
let f_speed_ns = 8 (* host-speed sample taken as the point started *)
let fields = 9

type t = {
  table : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  rows : int;
  row_of_seed : (int, int) Hashtbl.t;
}

let create (points : Spec.point list) =
  let rows = List.length points in
  let table = shared_ints (max 1 (rows * fields)) in
  A1.fill table 0;
  let row_of_seed = Hashtbl.create rows in
  List.iter
    (fun (p : Spec.point) ->
      if Hashtbl.mem row_of_seed p.Spec.point_seed then
        invalid_arg "Probe.create: two points share a seed";
      Hashtbl.replace row_of_seed p.Spec.point_seed p.Spec.index)
    points;
  { table; rows; row_of_seed }

let get t row f = A1.unsafe_get t.table ((row * fields) + f)
let set t row f v = A1.unsafe_set t.table ((row * fields) + f) v

(* One point in flight on this domain. [run_point] evaluates the
   factory and the config tweak (in either order) right before entering
   [Runner.run]; whichever comes second pairs the row with the probe. *)
type live = {
  mutable row : int;
  speed_ns : int;
  t_start : int;
  mutable calls : int;
}

type pairing = { mutable unpaired : live option; mutable early_row : int }

let pairing =
  Domain.DLS.new_key (fun () -> { unpaired = None; early_row = -1 })

let pair_factory (l : live) =
  let st = Domain.DLS.get pairing in
  if st.early_row >= 0 then begin
    l.row <- st.early_row;
    st.early_row <- -1
  end
  else st.unpaired <- Some l

let pair_config t (cfg : Config.t) =
  let row =
    match Hashtbl.find_opt t.row_of_seed cfg.Config.seed with
    | Some row -> row
    | None -> failwith "Probe: point seed not in this sweep"
  in
  let st = Domain.DLS.get pairing in
  (match st.unpaired with
  | Some l ->
    l.row <- row;
    st.unpaired <- None
  | None -> st.early_row <- row);
  cfg

let sample_rss t row =
  let kb = maxrss_kb () in
  if kb > get t row f_rss_kb then set t row f_rss_kb kb

let minor_words () = int_of_float (Gc.minor_words ())

let first_gen t (l : live) =
  if l.row < 0 then failwith "Probe: point started without its config";
  let row = l.row in
  set t row f_gen (now_ns ());
  set t row f_start l.t_start;
  set t row f_speed_ns l.speed_ns;
  set t row f_words_gen (minor_words ());
  set t row f_pid (Unix.getpid ());
  sample_rss t row

let mark t (l : live) =
  let row = l.row in
  set t row f_last (now_ns ());
  set t row f_words_last (minor_words ());
  l.calls <- l.calls + 1;
  if l.calls land 255 = 0 then sample_rss t row

let wrap_app t (make : unit -> App.t) () =
  let speed_ns = speed_sample_ns speed_ops in
  let l = { row = -1; speed_ns; t_start = now_ns (); calls = 0 } in
  pair_factory l;
  let app = make () in
  {
    app with
    App.gen =
      (fun rng ->
        if l.calls = 0 then first_gen t l;
        let spec = app.App.gen rng in
        mark t l;
        spec);
    handle =
      (fun ctx spec ->
        app.App.handle ctx spec;
        mark t l);
  }

(* The spec to hand to [Sweep.run], and the tweak to pass with it. *)
let instrument t (spec : Spec.t) =
  ( {
      spec with
      Spec.apps =
        List.map (fun (name, make) -> (name, wrap_app t make)) spec.Spec.apps;
    },
    pair_config t )

(* Sequential sweeps fire [progress] right after [run_point] returns, in
   the same process: the exact end of [Runner.run]. *)
let mark_end t (p : Spec.point) =
  let row = p.Spec.index in
  set t row f_end (now_ns ());
  sample_rss t row

type point = {
  index : int;
  start_ns : int;
  setup_ns : int;  (** factory/config → first App.gen *)
  simulate_ns : int;  (** first App.gen → last App callback *)
  simulate_words : int;
  extract_ns : int;  (** last callback → Runner.run return; -1 if unseen *)
  rss_kb : int;
  pid : int;
  speed_ns : int;  (** host-speed sample; [reference_ns] at reference speed *)
}

(* [ns] of host time on this point, in nanoseconds at reference speed *)
let at_reference (p : point) ns = float_of_int ns *. float_of_int reference_ns /. float_of_int p.speed_ns

let read t row =
  if get t row f_gen = 0 then
    failwith (Printf.sprintf "Probe: point %d never reached App.gen" row);
  let last = get t row f_last and gen = get t row f_gen in
  {
    index = row;
    start_ns = get t row f_start;
    setup_ns = gen - get t row f_start;
    simulate_ns = last - gen;
    simulate_words = get t row f_words_last - get t row f_words_gen;
    extract_ns = (if get t row f_end = 0 then -1 else get t row f_end - last);
    rss_kb = get t row f_rss_kb;
    pid = get t row f_pid;
    speed_ns = get t row f_speed_ns;
  }

let points t = List.init t.rows (read t)

