(* Benchmark executable: one measured pass, or the traced pass with the
   layer microbenchmarks.

     perfbench pass  --workload NAME --seed N [--jobs J] [--mode fork|domains]
     perfbench trace --workload NAME --seed N [--jobs J] --out FILE

   [pass] runs the workload's sweep once with the benchmark's spans off
   and prints the pass totals as one JSON line. [trace] runs the same
   pass with spans on, the profiler on/off comparison and the layer
   microbenchmarks, writes the spans to FILE (Chrome trace_event JSON)
   and prints the per-layer metrics. run.py starts each in a fresh
   process, so every pass is the first in its process, as an
   adios_sweep invocation is. No GC settings are touched. *)

module W = Workloads

let nproc = Domain.recommended_domain_count ()

(* --- JSON output ---------------------------------------------------- *)

let json_float f = Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list l = "[" ^ String.concat ", " l ^ "]"

(* --- arguments ------------------------------------------------------ *)

type args = {
  cmd : string;
  workload : W.t;
  seed : int;
  jobs : int option;
  mode : [ `Fork | `Domains ] option;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: perfbench pass --workload NAME --seed N [--jobs J] [--mode \
     fork|domains]\n\
    \       perfbench trace --workload NAME --seed N [--jobs J] --out FILE";
  exit 2

let parse argv =
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); usage ()) fmt in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> bad "%s expects an integer, got %S" flag v
  in
  let rec go (w, s, j, m, o) = function
    | [] -> (w, s, j, m, o)
    | "--workload" :: v :: tl -> go (Some v, s, j, m, o) tl
    | "--seed" :: v :: tl -> go (w, Some (int_arg "--seed" v), j, m, o) tl
    | "--jobs" :: v :: tl -> go (w, s, Some (int_arg "--jobs" v), m, o) tl
    | "--mode" :: "fork" :: tl -> go (w, s, j, Some `Fork, o) tl
    | "--mode" :: "domains" :: tl -> go (w, s, j, Some `Domains, o) tl
    | "--out" :: v :: tl -> go (w, s, j, m, Some v) tl
    | arg :: _ -> bad "unexpected argument %S" arg
  in
  match Array.to_list argv with
  | _ :: (("pass" | "trace") as cmd) :: rest -> (
    match go (None, None, None, None, None) rest with
    | Some w, Some seed, jobs, mode, out -> (
      match List.assoc_opt w W.all with
      | Some workload -> { cmd; workload; seed; jobs; mode; out }
      | None ->
        bad "unknown workload %S (valid: %s)" w (String.concat ", " (List.map fst W.all)))
    | _ -> bad "--workload and --seed are required")
  | _ -> usage ()

(* Jobs above the core count oversubscribe the host and measure the
   scheduler instead of the simulator: clamp, loudly. *)
let effective_jobs (plan : W.plan) = function
  | None -> plan.W.jobs
  | Some j when j > nproc ->
    Printf.eprintf "perfbench: warning: --jobs %d exceeds nproc %d; clamped to %d\n%!" j
      nproc nproc;
    nproc
  | Some j -> max 1 j

let backend_name jobs mode =
  if jobs <= 1 then "sequential" else match mode with `Fork -> "fork" | `Domains -> "domains"

(* --- pass totals ---------------------------------------------------- *)

let pass_fields (p : W.pass) =
  [
    ("wall_s", json_float p.W.wall_s);
    ("sweep_s", json_float (List.fold_left (fun acc r -> acc +. r.W.sweep_s) 0. p.W.runs));
    ("setup_s", json_float (W.setup_s p));
    ("simulate_s", json_float (W.simulate_s p));
    ("speed_scale", json_float (W.speed_scale p));
    ("setup_ref_s", json_float (W.setup_ref_s p));
    ("simulate_ref_s", json_float (W.simulate_ref_s p));
    ("sim_events", string_of_int (W.sim_events p));
    ("simulate_words", string_of_int (W.simulate_words p));
    ("peak_rss_kb", string_of_int (W.peak_rss_kb p));
    ("attempted", string_of_int (W.attempted p));
    ("failed", string_of_int (W.failed p));
    (* the result rows, fingerprinted: equal digests = equal datasets *)
    ("digest", json_string (Digest.to_hex (Digest.string (String.concat "\n" (W.csvs p)))));
    ("violations", json_list (List.map json_string (W.violations p)));
  ]

(* --- traced pass ---------------------------------------------------- *)

(* Per-point timings: the median and the highest percentile that still
   has at least ten points above it (the median below 20 points). *)
let tail_rank n = if n < 20 then 50 else 100 * (n - 10) / n

let dist name values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at p = a.(max 0 ((((p * n) + 99) / 100) - 1)) in
  [ (name ^ ".p50", (at 50, "s")); (name ^ ".tail", (at (tail_rank n), "s")) ]

(* The profiler's cost on four points spread over the workload, each run
   in-process off, on, off, on. In-process, the probe also sees
   [Runner.run] return, which gives the share of a point's time spent
   after its last App callback (result extraction). A point whose CSV
   row changes with the profiler on counts as failed. *)
let prof_overhead (plan : W.plan) spans =
  let all =
    List.concat_map (fun spec -> List.map (fun p -> (spec, p)) (W.Spec.points spec)) plan.W.specs
  in
  let n = List.length all in
  let picks = List.init 4 (fun k -> List.nth all ((((2 * k) + 1) * n) / 8)) in
  let off = ref 0 and on = ref 0 and extract = ref 0 and perturbed = ref [] in
  List.iter
    (fun ((spec : W.Spec.t), (point : W.Spec.point)) ->
      let probe = Probe.create (W.Spec.points spec) in
      let wrapped, cfg_tweak = Probe.instrument probe spec in
      let wpoint = List.nth (W.Spec.points wrapped) point.W.Spec.index in
      let run profile =
        let t0 = Probe.now_ns () in
        let r = W.Sweep.run_point ~cfg_tweak ~profile wrapped wpoint in
        Probe.mark_end probe wpoint;
        W.record spans
          ~name:(if profile then "prof:on" else "prof:off")
          ~args:[ ("spec", spec.W.Spec.name); ("point", string_of_int point.W.Spec.index) ]
          t0 (Probe.now_ns ());
        let p = Probe.read probe point.W.Spec.index in
        if profile then on := !on + p.Probe.simulate_ns
        else begin
          off := !off + p.Probe.simulate_ns;
          extract := !extract + p.Probe.extract_ns
        end;
        Adios_core.Export.csv_row r
      in
      let rows = List.map run [ false; true; false; true ] in
      if List.exists (fun r -> not (String.equal r (List.hd rows))) rows then
        perturbed := W.Sweep.point_label point :: !perturbed)
    picks;
  ( float_of_int !on /. float_of_int !off,
    float_of_int !extract /. float_of_int !off,
    4 * List.length picks,
    List.rev !perturbed )

let write_spans ~out ~host (spans : W.span list) =
  let t0 = List.fold_left (fun acc s -> min acc s.W.start_ns) max_int spans in
  let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.) in
  let event (s : W.span) =
    json_obj
      [
        ("name", json_string s.W.name);
        ("ph", json_string "X");
        ("ts", us (s.W.start_ns - t0));
        ("dur", us (s.W.end_ns - s.W.start_ns));
        ("pid", string_of_int s.W.pid);
        ("tid", "0");
        ("args", json_obj (List.map (fun (k, v) -> (k, json_string v)) s.W.args));
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc
        (json_obj
           [
             ("traceEvents", "[\n" ^ String.concat ",\n" (List.map event (List.rev spans)) ^ "\n]");
             ("displayTimeUnit", json_string "ns");
             ("otherData", json_obj host);
           ]))

let traced ~(plan : W.plan) ~jobs ~host ~out =
  let spans = ref [] in
  let span name f =
    let t0 = Probe.now_ns () in
    let v = f () in
    W.record (Some spans) ~name t0 (Probe.now_ns ());
    v
  in
  let pass = span "pass" (fun () -> W.run_pass ~jobs ~spans plan) in
  let prof_ratio, extract_share, prof_runs, perturbed =
    span "prof" (fun () -> prof_overhead plan (Some spans))
  in
  let first_result =
    match W.all_results pass with
    | (_, r) :: _ -> r
    | [] -> failwith "perfbench: the traced pass produced no results"
  in
  let layers =
    Layers.run ~record:(fun name a b -> W.record (Some spans) ~name a b) ~result:first_result
  in
  write_spans ~out ~host !spans;
  let probes = W.all_probes pass in
  let results = List.map snd (W.all_results pass) in
  let n = List.length probes in
  (* pass timings at reference host speed, like the end-to-end metrics *)
  let ref_s p ns = Probe.at_reference p ns *. 1e-9 in
  let scale = W.speed_scale pass in
  let host_s = List.map (fun p -> ref_s p (p.Probe.setup_ns + p.Probe.simulate_ns)) probes in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let completed = sum (fun r -> r.Adios_core.Runner.completed) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. pass.W.runs in
  let count v = (float_of_int v, "count") in
  let case name =
    let c = List.assoc name layers.Layers.cases in
    [
      (name ^ "_ns", (c.Layers.ns_per_op, "ns"));
      (name ^ "_words", (c.Layers.words_per_op, "words"));
    ]
  in
  let metrics =
    [ ("core.points", count n); ("core.tail_percentile", (float_of_int (tail_rank n), "%")) ]
    @ dist "core.testbed_s" (List.map (fun p -> ref_s p p.Probe.setup_ns) probes)
    @ dist "core.simulate_s" (List.map (fun p -> ref_s p p.Probe.simulate_ns) probes)
    @ [
        ("core.extract_share", (extract_share, "ratio"));
        ("core.completed", count completed);
        ("core.csv_row_us", (layers.Layers.csv_row_us, "us"));
        ("engine.sim_events", count (W.sim_events pass));
      ]
    @ case "engine.step" @ case "engine.far_step" @ case "engine.cancel"
    @ case "rdma.post_cqe" @ case "mem.fault"
    @ [
        ( "mem.faults_per_req",
          ( float_of_int (sum (fun r -> r.Adios_core.Runner.faults))
            /. float_of_int (max 1 completed),
            "ratio" ) );
        ("mem.evictions", count (sum (fun r -> r.Adios_core.Runner.evictions)));
        ("mem.writeback_stalls", count (sum (fun r -> r.Adios_core.Runner.writeback_stalls)));
      ]
    @ case "unithread.switch" @ case "stats.record"
    @ List.map (fun (app, s) -> ("apps.build_s." ^ app, (s, "s"))) layers.Layers.builds
    @ [
        ("prof.overhead", (prof_ratio, "ratio"));
        ( "exp.imbalance",
          ( List.fold_left Float.max 0. host_s
            /. (List.fold_left ( +. ) 0. host_s /. float_of_int (max 1 n)),
            "ratio" ) );
        ("exp.dataset_s", (scale *. total (fun r -> r.W.dataset_s), "s"));
        ("exp.oracle_s", (scale *. total (fun r -> r.W.oracle_s), "s"));
        ("exp.golden_s", (scale *. total (fun r -> r.W.golden_s), "s"));
        ("host.speed_scale", (scale, "ratio"));
      ]
  in
  print_endline
    (json_obj
       ([ ("host", json_obj host); ("spans", json_string out) ]
       @ pass_fields pass
       @ [
           ("prof_runs", string_of_int prof_runs);
           ("perturbed", json_list (List.map json_string perturbed));
           ( "metrics",
             json_obj
               (List.map
                  (fun (name, (v, unit)) ->
                    (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
                  metrics) );
         ]))

let main () =
  let a = parse Sys.argv in
  let plan = W.plan a.workload ~seed:a.seed ~nproc in
  let jobs = effective_jobs plan a.jobs in
  let mode = Option.value a.mode ~default:`Fork in
  let host =
    [
      ("workload", json_string (W.name a.workload));
      ("seed", string_of_int a.seed);
      ("nproc", string_of_int nproc);
      ("ocaml", json_string Sys.ocaml_version);
      ("jobs", string_of_int jobs);
      ("backend", json_string (backend_name jobs mode));
      ( "ocamlrunparam",
        json_string (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"") );
    ]
  in
  match (a.cmd, a.out) with
  | "pass", _ ->
    let p = W.run_pass ~jobs ~mode plan in
    print_endline (json_obj (("host", json_obj host) :: pass_fields p))
  | _, Some out -> traced ~plan ~jobs ~host ~out
  | _, None -> usage ()

let () = main ()
