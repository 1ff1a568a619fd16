(* The benchmark's workloads and one timed pass over each.

   Every point is an open-loop Poisson arrival stream at its offered
   load, in simulated time; a pass runs a workload's points back to back
   through [Sweep.run], then builds the datasets and checks them. Why
   each workload exists is recorded in README.md. *)

module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Config = Adios_core.Config
module Runner = Adios_core.Runner

type t = Array_fault | Silo_tpcc | Golden_check

let all =
  [
    ("array-fault", Array_fault);
    ("silo-tpcc", Silo_tpcc);
    ("golden-check", Golden_check);
  ]

let name w = fst (List.find (fun (_, w') -> w' = w) all)

(* Requests per point. The array grid is long enough that simulation
   dominates the host time; silo's is bench/main.ml's Fig. 12 count.
   silo-tpcc is not in BENCHMARK.json: Adios livelocks at its 750 krps
   point on some seeds (README.md). *)
let array_requests = 40_000
let silo_requests = 20_000

type plan = {
  specs : Spec.t list;
  jobs : int;
  golden : bool;
      (** run with the profiler on and compare both datasets byte for
          byte against test/golden, as [adios_sweep --profile --golden] *)
}

let plan w ~seed ~nproc =
  match w with
  | Array_fault ->
    {
      specs =
        [
          Spec.make ~name:"array-fault" ~loads:Spec.reduced_array.Spec.loads
            ~requests:array_requests ~seed ();
        ];
      jobs = 1;
      golden = false;
    }
  | Silo_tpcc ->
    {
      specs =
        [
          Spec.make ~name:"silo-tpcc" ~apps:[ "silo" ]
            ~loads:[ 150.; 300.; 450.; 600.; 750. ]
            ~requests:silo_requests ~seed ();
        ];
      jobs = 1;
      golden = false;
    }
  | Golden_check ->
    (* the goldens pin their own seeds: [seed] cannot apply here *)
    { specs = Spec.all_goldens; jobs = nproc; golden = true }

(* The oracle bundle each spec must pass, as [adios_sweep --oracle]
   picks it. *)
let bundle (spec : Spec.t) ds =
  if Spec.clustered spec then Oracle.check_cluster ds
  else if List.mem Config.Steal spec.Spec.systems then Oracle.check_steal ds
  else Oracle.check_all ds

let golden_path (spec : Spec.t) suffix =
  Filename.concat "test/golden" (spec.Spec.name ^ suffix ^ ".csv")

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* --- spans --------------------------------------------------------- *)

type span = {
  name : string;
  start_ns : int;
  end_ns : int;
  pid : int;
  args : (string * string) list;
}

type spans = span list ref

let record spans ~name ?(pid = 0) ?(args = []) start_ns end_ns =
  match spans with
  | Some r -> r := { name; start_ns; end_ns; pid; args } :: !r
  | None -> ()

(* --- one pass ------------------------------------------------------ *)

type spec_run = {
  spec : Spec.t;
  results : (Spec.point * Runner.result) list;  (** [] when the sweep raised *)
  probes : Probe.point list;
  sweep_s : float;
  dataset_s : float;
  oracle_s : float;
  golden_s : float;
  csv : string;  (** dataset bytes: what the golden comparison reads *)
  failed : int;  (** points that raised or failed an output check *)
  violations : string list;
}

type pass = { runs : spec_run list; wall_s : float }

let secs a b = float_of_int (b - a) *. 1e-9
let now = Probe.now_ns

let bands = Array.length Adios_prof.Profiler.band_names

(* Rows of point [i]: one in the main dataset, [bands] in the phase
   dataset, both in point order. *)
let point_rows (ds : Dataset.t) i =
  List.nth ds.Dataset.rows i

let point_phase_rows (pds : Dataset.t) i =
  List.filteri (fun j _ -> j / bands = i) pds.Dataset.rows

let check_spec (plan : plan) spans (spec : Spec.t) results =
  let n = List.length results in
  let failed = Array.make n false in
  let violations = ref [] in
  let fail_all msg =
    Array.fill failed 0 n true;
    violations := msg :: !violations
  in
  let t0 = now () in
  let ds = Dataset.of_run ~cluster:(Spec.clustered spec) results in
  let pds = if plan.golden then Some (Dataset.phases_of_run results) else None in
  let csv = Dataset.to_csv ds in
  let phases_csv = Option.map Dataset.to_csv pds in
  let t1 = now () in
  record spans ~name:"dataset" ~args:[ ("spec", spec.Spec.name) ] t0 t1;
  List.iteri
    (fun i row ->
      let one = { ds with Dataset.rows = [ row ] } in
      match Oracle.check_conservation one @ Oracle.check_cpu_conservation one with
      | [] -> ()
      | v :: _ ->
        failed.(i) <- true;
        violations := v :: !violations)
    ds.Dataset.rows;
  (match bundle spec ds with [] -> () | v :: _ -> fail_all (spec.Spec.name ^ ": " ^ v));
  (match pds with
  | None -> ()
  | Some pds ->
    for i = 0 to n - 1 do
      match
        Oracle.check_phase_conservation
          { pds with Dataset.rows = point_phase_rows pds i }
      with
      | [] -> ()
      | v :: _ ->
        failed.(i) <- true;
        violations := v :: !violations
    done;
    match Oracle.check_phases pds with
    | [] -> ()
    | v :: _ -> fail_all (spec.Spec.name ^ "-phases: " ^ v));
  let t2 = now () in
  record spans ~name:"oracle" ~args:[ ("spec", spec.Spec.name) ] t1 t2;
  (* Rows that differ from the golden fail their own point; a header,
     row-count or byte difference no row explains fails the spec. *)
  let compare_golden suffix ours rows_of =
    match read_file (golden_path spec suffix) with
    | exception Sys_error msg -> fail_all msg
    | golden when String.equal golden ours -> ()
    | golden ->
      let attributed = ref false in
      (match (Dataset.of_csv golden, Dataset.of_csv ours) with
      | Ok g, Ok o
        when g.Dataset.header = o.Dataset.header
             && List.length g.Dataset.rows = List.length o.Dataset.rows ->
        for i = 0 to n - 1 do
          if rows_of g i <> rows_of o i then begin
            attributed := true;
            failed.(i) <- true;
            violations :=
              Printf.sprintf "%s%s: point %d differs from golden" spec.Spec.name suffix i
              :: !violations
          end
        done
      | _ -> ());
      if not !attributed then fail_all (spec.Spec.name ^ suffix ^ ": differs from golden")
  in
  if plan.golden then begin
    compare_golden "" csv (fun d i -> [ point_rows d i ]);
    Option.iter (fun p -> compare_golden "-phases" p point_phase_rows) phases_csv
  end;
  let t3 = now () in
  record spans ~name:"golden" ~args:[ ("spec", spec.Spec.name) ] t2 t3;
  ( csv,
    secs t0 t1,
    secs t1 t2,
    secs t2 t3,
    Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 failed,
    List.rev !violations )

let run_spec (plan : plan) ~jobs ~mode spans (spec : Spec.t) =
  let points = Spec.points spec in
  let probe = Probe.create points in
  let wrapped, cfg_tweak = Probe.instrument probe spec in
  let progress p _ = if jobs <= 1 then Probe.mark_end probe p in
  let t0 = now () in
  let outcome =
    match
      Sweep.run ~jobs ~mode ~cfg_tweak ~profile:plan.golden ~progress wrapped
    with
    | results -> Ok results
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  record spans ~name:"sweep"
    ~args:[ ("spec", spec.Spec.name); ("jobs", string_of_int jobs) ]
    t0 t1;
  match outcome with
  | Error msg ->
    {
      spec;
      results = [];
      probes = [];
      sweep_s = secs t0 t1;
      dataset_s = 0.;
      oracle_s = 0.;
      golden_s = 0.;
      csv = "";
      failed = List.length points;
      violations = [ msg ];
    }
  | Ok results ->
    let probes = Probe.points probe in
    List.iter
      (fun (pp : Probe.point) ->
        let args = [ ("spec", spec.Spec.name); ("point", string_of_int pp.index) ] in
        record spans ~name:"testbed" ~pid:pp.pid ~args pp.start_ns
          (pp.start_ns + pp.setup_ns);
        record spans ~name:"simulate" ~pid:pp.pid ~args
          (pp.start_ns + pp.setup_ns)
          (pp.start_ns + pp.setup_ns + pp.simulate_ns))
      probes;
    let csv, dataset_s, oracle_s, golden_s, failed, violations =
      check_spec plan spans spec results
    in
    { spec; results; probes; sweep_s = secs t0 t1; dataset_s; oracle_s;
      golden_s; csv; failed; violations }

let run_pass ?jobs ?(mode = `Fork) ?(spans : spans option) (plan : plan) =
  let jobs = Option.value jobs ~default:plan.jobs in
  let t0 = now () in
  let runs = List.map (run_spec plan ~jobs ~mode spans) plan.specs in
  { runs; wall_s = secs t0 (now ()) }

(* --- pass totals --------------------------------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let all_probes pass = List.concat_map (fun r -> r.probes) pass.runs
let all_results pass = List.concat_map (fun r -> r.results) pass.runs
let attempted pass = sum (fun r -> Spec.point_count r.spec) pass.runs
let failed pass = sum (fun r -> r.failed) pass.runs
let sim_events pass = sum (fun (_, r) -> r.Runner.sim_events) (all_results pass)
let setup_s pass = float_of_int (sum (fun p -> p.Probe.setup_ns) (all_probes pass)) *. 1e-9
let simulate_s pass =
  float_of_int (sum (fun p -> p.Probe.simulate_ns) (all_probes pass)) *. 1e-9
let simulate_words pass = sum (fun p -> p.Probe.simulate_words) (all_probes pass)

(* The same sums at reference host speed (Probe.at_reference), and the
   duration-weighted scale that carries a pass's wall time there. *)
let sum_ref f pass =
  List.fold_left (fun acc p -> acc +. Probe.at_reference p (f p)) 0. (all_probes pass) *. 1e-9

let setup_ref_s = sum_ref (fun p -> p.Probe.setup_ns)
let simulate_ref_s = sum_ref (fun p -> p.Probe.simulate_ns)

let speed_scale pass =
  let host p = p.Probe.setup_ns + p.Probe.simulate_ns in
  match all_probes pass with
  | [] -> 1.
  | probes -> sum_ref host pass /. (float_of_int (sum host probes) *. 1e-9)
let peak_rss_kb pass =
  List.fold_left (fun acc p -> max acc p.Probe.rss_kb) 0 (all_probes pass)
let violations pass = List.concat_map (fun r -> r.violations) pass.runs
let csvs pass = List.map (fun r -> r.csv) pass.runs
