(* Sweep front end: run a declarative (systems x apps x loads) sweep,
   store the dataset as CSV, and gate on the figure-shape oracles and
   golden comparisons from lib/exp.

     adios_sweep --spec array-reduced --oracle            # canonical sweep + shape checks
     adios_sweep --spec array-reduced --golden test/golden/array-reduced.csv
     adios_sweep --regen-golden test/golden               # rewrite every golden CSV
     adios_sweep --apps rocksdb --loads 300,700,1100 --jobs 4 --out sweep.csv *)

module Config = Adios_core.Config
module Report = Adios_core.Report
module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle

(* The oracle bundle a spec must pass: clustered sweeps trade the
   multi-system shape checks for the failover and replication gates;
   sweeps carrying the Steal system swap the Adios-first ranking for the
   steal-activity and tail-regime gates. *)
let bundle spec ?k ds =
  if Spec.clustered spec then Oracle.check_cluster ds
  else if List.mem Config.Steal spec.Spec.systems then Oracle.check_steal ?k ds
  else Oracle.check_all ?k ds

let comma_list conv_one =
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match conv_one (String.trim x) with
        | Ok v -> go (v :: acc) rest
        | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)
  in
  parse

let float_of_name s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (`Msg ("not a number: " ^ s))

(* --- output ------------------------------------------------------------- *)

let fail_write path msg =
  Format.eprintf "adios_sweep: cannot write %s: %s@." path msg;
  exit 1

(* The tail-forensics dataset rides next to the main one on disk:
   sweep.csv -> sweep-phases.csv, test/golden/<spec>.csv ->
   test/golden/<spec>-phases.csv. *)
let phases_path path =
  Filename.remove_extension path ^ "-phases" ^ Filename.extension path

let report title = function
  | [] ->
    Format.printf "%s: ok@." title;
    true
  | violations ->
    List.iter (fun v -> Format.printf "%s: FAIL: %s@." title v) violations;
    false

let print_knees ds =
  List.iter
    (fun app ->
      List.iter
        (fun (system, knee) ->
          Format.printf "knee %-8s %-14s %s@." system app
            (match knee with
            | Some l -> Printf.sprintf "%.0f krps" l
            | None -> "beyond the grid"))
        (Oracle.knees ds ~app))
    (Dataset.apps ds)

(* Curve summary JSON: one object per (system, app) curve with its
   shape numbers (knee, peak throughput, baseline tail). *)
let write_json ~path (spec : Spec.t) ds =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"sweep\": %S,\n  \"seed\": %d,\n  \"requests\": %d,\n  \
        \"curves\": [\n"
       spec.Spec.name spec.Spec.seed spec.Spec.requests);
  let first = ref true in
  List.iter
    (fun app ->
      List.iter
        (fun system ->
          let rows = Oracle.curve ds ~system ~app in
          let peak =
            List.fold_left
              (fun acc row -> Float.max acc (Dataset.getf ds row "achieved_krps"))
              0. rows
          in
          let baseline =
            match rows with
            | [] -> 0.
            | row :: _ -> Dataset.getf ds row "p999_us"
          in
          let knee = Oracle.knee ds ~system ~app in
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"system\": %S, \"app\": %S, \"knee_krps\": %s, \
                \"peak_krps\": %.1f, \"baseline_p999_us\": %.3f}"
               system app
               (match knee with
               | Some l -> Printf.sprintf "%.1f" l
               | None -> "null")
               peak baseline))
        (Dataset.systems ds))
    (Dataset.apps ds);
  Buffer.add_string buf "\n  ]\n}\n";
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf))
  with
  | () -> Format.printf "perf trajectory: %s@." path
  | exception Sys_error msg -> fail_write path msg

(* --- main --------------------------------------------------------------- *)

let progress_line quiet point r =
  if not quiet then begin
    Format.printf "[%3d] " point.Spec.index;
    Report.result_line r
  end

let regen_golden dir jobs mode quiet =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Format.eprintf "adios_sweep: golden directory %s does not exist@." dir;
    exit 1
  end;
  List.iter
    (fun spec ->
      (* profiling is perturbation-free, so running every golden spec
         with it on regenerates the main golden byte-identically while
         also producing the tail-forensics twin *)
      let run =
        Sweep.run ~jobs ~mode ~profile:true ~progress:(progress_line quiet)
          spec
      in
      let ds = Dataset.of_run ~cluster:(Spec.clustered spec) run in
      (match bundle spec ds with
      | [] -> ()
      | violations ->
        (* a golden that fails its own oracles would freeze a broken
           shape: refuse to write it *)
        List.iter
          (fun v -> Format.eprintf "%s: FAIL: %s@." spec.Spec.name v)
          violations;
        exit 1);
      let pds = Dataset.phases_of_run run in
      (match Oracle.check_phases pds with
      | [] -> ()
      | violations ->
        List.iter
          (fun v -> Format.eprintf "%s-phases: FAIL: %s@." spec.Spec.name v)
          violations;
        exit 1);
      let path = Filename.concat dir (spec.Spec.name ^ ".csv") in
      (try Dataset.store ~path ds
       with Sys_error msg -> fail_write path msg);
      Format.printf "golden %s: %d rows -> %s@." spec.Spec.name
        (Dataset.length ds) path;
      let ppath = phases_path path in
      (try Dataset.store ~path:ppath pds
       with Sys_error msg -> fail_write ppath msg);
      Format.printf "golden %s-phases: %d rows -> %s@." spec.Spec.name
        (Dataset.length pds) ppath)
    Spec.all_goldens

let run spec_name systems apps loads requests seed jobs mode out golden oracle
    knee_k json quiet regen profile =
  match regen with
  | Some dir ->
    regen_golden dir jobs mode quiet;
    0
  | None ->
    let spec =
      match spec_name with
      | Some name -> (
        match Spec.reduced_by_name name with
        | Some spec -> spec
        | None ->
          Format.eprintf "adios_sweep: unknown spec %S (valid: %s)@." name
            (String.concat ", "
               (List.map (fun (s : Spec.t) -> s.Spec.name) Spec.all_goldens));
          exit 1)
      | None ->
        (try Spec.make ~name:"custom" ~systems ~apps ~loads ~requests ~seed ()
         with Invalid_argument msg ->
           Format.eprintf "adios_sweep: %s@." msg;
           exit 1)
    in
    if not quiet then
      Format.printf "sweep %s: %d points (%d systems x %d apps x %d loads), \
                     seed %d, %d jobs@."
        spec.Spec.name (Spec.point_count spec)
        (List.length spec.Spec.systems)
        (List.length spec.Spec.apps)
        (List.length spec.Spec.loads)
        spec.Spec.seed jobs;
    (* lint: allow determinism -- elapsed-time print only, not in the dataset *)
    let t0 = Unix.gettimeofday () in
    let results =
      Sweep.run ~jobs ~mode ~profile ~progress:(progress_line quiet) spec
    in
    let ds = Dataset.of_run ~cluster:(Spec.clustered spec) results in
    let pds = if profile then Some (Dataset.phases_of_run results) else None in
    if not quiet then
      Format.printf "sweep %s: %d rows in %.1fs@." spec.Spec.name
        (Dataset.length ds)
        (* lint: allow determinism -- same elapsed-time print *)
        (Unix.gettimeofday () -. t0);
    (match out with
    | None -> ()
    | Some path -> (
      try
        Dataset.store ~path ds;
        Format.printf "dataset: %d rows -> %s@." (Dataset.length ds) path
      with Sys_error msg -> fail_write path msg));
    (match (out, pds) with
    | Some path, Some pds -> (
      let ppath = phases_path path in
      try
        Dataset.store ~path:ppath pds;
        Format.printf "phases: %d rows -> %s@." (Dataset.length pds) ppath
      with Sys_error msg -> fail_write ppath msg)
    | _ -> ());
    (match json with None -> () | Some path -> write_json ~path spec ds);
    if not quiet then print_knees ds;
    let ok = ref true in
    (match golden with
    | None -> ()
    | Some path -> (
      match Dataset.load ~path with
      | Error msg ->
        Format.eprintf "adios_sweep: %s@." msg;
        exit 1
      | Ok g ->
        ok := report "golden" (Oracle.compare_golden ~golden:g ds) && !ok));
    (* a profiled run held to a golden is also held to the golden's
       tail-forensics twin — a missing twin is an error, not a skip, so
       the phase gate cannot silently fall out of CI *)
    (match (golden, pds) with
    | Some path, Some pds -> (
      let ppath = phases_path path in
      match Dataset.load ~path:ppath with
      | Error msg ->
        Format.eprintf "adios_sweep: phase golden: %s@." msg;
        exit 1
      | Ok g ->
        ok :=
          report "phase golden"
            (Oracle.compare_golden ~golden:g pds)
          && !ok)
    | _ -> ());
    if oracle then ok := report "oracle" (bundle spec ~k:knee_k ds) && !ok;
    (match (oracle, pds) with
    | true, Some pds ->
      ok := report "phase oracle" (Oracle.check_phases pds) && !ok
    | _ -> ());
    if !ok then 0 else 1

open Cmdliner

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"NAME"
        ~doc:
          "Run a canonical reduced-scale spec (array-reduced, \
           memcached-reduced, rocksdb-scan-reduced, cluster-reduced, \
           steal-reduced) instead of building one from the grid flags. \
           These are the specs the checked-in goldens were generated \
           from.")

let systems_arg =
  let systems_conv =
    Arg.conv
      ( comma_list Config.system_of_name,
        fun ppf l ->
          Format.pp_print_string ppf
            (String.concat "," (List.map Config.system_name l)) )
  in
  Arg.(
    value
    & opt systems_conv [ Config.Hermit; Config.Dilos; Config.Dilos_p; Config.Adios ]
    & info [ "systems" ] ~docv:"LIST"
        ~doc:
          "Comma-separated systems to sweep (default: the four paper \
           systems; add 'steal' for the work-stealing variant).")

let apps_arg =
  Arg.(
    value
    & opt (list string) [ "array" ]
    & info [ "apps" ] ~docv:"LIST"
        ~doc:"Comma-separated applications (see adios_sim for names).")

let loads_arg =
  let loads_conv =
    Arg.conv
      ( comma_list float_of_name,
        fun ppf l ->
          Format.pp_print_string ppf
            (String.concat "," (List.map (Printf.sprintf "%g") l)) )
  in
  Arg.(
    value
    & opt loads_conv [ 200.; 600.; 1000.; 1300.; 1600.; 2000.; 2400.; 2700. ]
    & info [ "loads" ] ~docv:"LIST" ~doc:"Offered-load grid in KRPS.")

let requests_arg =
  Arg.(
    value & opt int 4000
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Requests per point.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Sweep master seed; every point derives its own seed from it \
           and its grid position.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run up to N points in parallel (1 = in-process sequential). \
           Results are identical either way.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("fork", `Fork); ("domains", `Domains) ]) `Fork
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Parallel backend when --jobs exceeds 1: 'fork' spawns worker \
           processes, 'domains' runs the points on domains in this \
           process, each taking the next unclaimed point. Results are \
           byte-identical across backends.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the dataset CSV to FILE.")

let golden_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "golden" ] ~docv:"FILE"
        ~doc:
          "Compare the dataset against a golden CSV cell by cell; any \
           difference exits non-zero.")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Run the figure-shape oracles (knees detected, Adios ranking, \
           throughput monotone, conservation); violations exit non-zero.")

let knee_k_arg =
  Arg.(
    value & opt float 3.
    & info [ "knee-k" ] ~docv:"K"
        ~doc:
          "Knee threshold: the load where P99.9 first exceeds K times \
           the low-load baseline.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write a JSON curve summary (knee, peak throughput and \
           baseline tail per curve).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-point rows.")

let regen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "regen-golden" ] ~docv:"DIR"
        ~doc:
          "Re-run every golden spec (the reduced sweeps plus \
           cluster-reduced and steal-reduced) and rewrite DIR/<name>.csv \
           (normally test/golden). Refuses to write a golden that fails \
           its own oracles.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the critical-path profiler to every point \
           (perturbation-free: the main dataset is byte-identical either \
           way) and derive the tail-forensics dataset — one row per \
           (point, latency band) with per-phase cycle totals. With --out \
           FILE the phase rows are stored next to it as \
           FILE's-name-phases.csv; with --golden they are compared \
           against the golden's -phases twin; with --oracle the \
           phase-conservation and tail-attribution checks run.")

let cmd =
  let doc = "run a declarative sweep with figure-shape oracles and goldens" in
  Cmd.v
    (Cmd.info "adios_sweep" ~doc)
    Term.(
      const run $ spec_arg $ systems_arg $ apps_arg $ loads_arg $ requests_arg
      $ seed_arg $ jobs_arg $ mode_arg $ out_arg $ golden_arg $ oracle_arg
      $ knee_k_arg $ json_arg $ quiet_arg $ regen_arg $ profile_arg)

let () = exit (Cmd.eval' cmd)
