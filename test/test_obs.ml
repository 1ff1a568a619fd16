(* lib/obs tests: registry registration rules and label rendering, the
   accountant's cycle-conservation identity (unit fixtures plus a qcheck
   property over real end-to-end runs), episode-histogram merging, the
   dense indices of the counter, phase and CPU-state tables, the
   OpenMetrics render/validate round-trip with a golden exposition of a
   tiny fixed run, every metric family reaching the exposition, and
   every counter agreeing between CSV and metrics. *)

module Config = Adios_core.Config
module Counter = Adios_core.Counter
module Runner = Adios_core.Runner
module Export = Adios_core.Export
module Cluster = Adios_cluster.Cluster
module Injector = Adios_fault.Injector
module Phase = Adios_prof.Phase
module Registry = Adios_obs.Registry
module Acct = Adios_obs.Accountant
module Openmetrics = Adios_obs.Openmetrics
module Histogram = Adios_stats.Histogram
module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* --- registry ----------------------------------------------------------- *)

let gauge_metric ?(labels = []) name =
  { Registry.name; help = "h"; labels; value = Registry.Gauge (fun () -> 0.) }

let test_series_name () =
  check_string "bare name" "adios_depth"
    (Registry.series_name (gauge_metric "adios_depth"));
  check_string "labels in registration order" "adios_depth{worker=3,system=adios}"
    (Registry.series_name
       (gauge_metric ~labels:[ ("worker", "3"); ("system", "adios") ] "adios_depth"))

let test_registration_rules () =
  let reg = Registry.create () in
  check_bool "prefix required" true
    (raises_invalid (fun () ->
         Registry.gauge reg ~name:"foo_depth" ~help:"h" (fun () -> 0.)));
  check_bool "counter must end in _total" true
    (raises_invalid (fun () ->
         Registry.counter reg ~name:"adios_ops" ~help:"h" (fun () -> 0)));
  check_bool "gauge must not end in _total" true
    (raises_invalid (fun () ->
         Registry.gauge reg ~name:"adios_ops_total" ~help:"h" (fun () -> 0.)));
  check_bool "histogram must not end in _total" true
    (raises_invalid (fun () ->
         Registry.histogram reg ~name:"adios_lat_total" ~help:"h" (fun () ->
             Histogram.create ())));
  check_bool "label names are validated" true
    (raises_invalid (fun () ->
         Registry.gauge reg ~name:"adios_depth" ~help:"h"
           ~labels:[ ("Bad-Label", "x") ]
           (fun () -> 0.)));
  Registry.gauge reg ~name:"adios_depth" ~help:"h"
    ~labels:[ ("worker", "0") ]
    (fun () -> 0.);
  check_bool "duplicate (name, labels) rejected" true
    (raises_invalid (fun () ->
         Registry.gauge reg ~name:"adios_depth" ~help:"h"
           ~labels:[ ("worker", "0") ]
           (fun () -> 0.)));
  (* same name, different labels: a second series of the same family *)
  Registry.gauge reg ~name:"adios_depth" ~help:"h"
    ~labels:[ ("worker", "1") ]
    (fun () -> 0.);
  check_int "both series registered" 2 (List.length (Registry.metrics reg))

let test_scalar_series () =
  let reg = Registry.create () in
  Registry.counter reg ~name:"adios_ops_total" ~help:"h" (fun () -> 7);
  Registry.histogram reg ~name:"adios_lat" ~help:"h" (fun () ->
      Histogram.create ());
  Registry.gauge reg ~name:"adios_depth" ~help:"h" (fun () -> 2.5);
  let series = Registry.scalar_series reg in
  check
    (Alcotest.list Alcotest.string)
    "histograms skipped, order kept"
    [ "adios_ops_total"; "adios_depth" ]
    (List.map fst series);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "readers sample live values" [ 7.0; 2.5 ]
    (List.map (fun (_, read) -> read ()) series)

(* --- accountant --------------------------------------------------------- *)

let cycles_in snap ~cpu st = snap.Acct.cycles.(cpu).(Acct.state_index st)

let test_accountant_partition () =
  let sim = Sim.create () in
  let acct = Acct.create sim ~cpus:2 in
  Hosted.spawn sim (fun () ->
      Acct.switch acct ~cpu:0 Acct.App_compute;
      Proc.wait 100;
      Acct.switch acct ~cpu:0 Acct.Tx;
      Proc.wait 50;
      Acct.switch acct ~cpu:0 Acct.Idle);
  Sim.run sim;
  let s = Acct.snapshot acct in
  check_int "duration" 150 s.Acct.duration;
  check_int "app cycles" 100 (cycles_in s ~cpu:0 Acct.App_compute);
  check_int "tx cycles" 50 (cycles_in s ~cpu:0 Acct.Tx);
  check_int "untouched cpu idles" 150 (cycles_in s ~cpu:1 Acct.Idle);
  Array.iter
    (fun row ->
      check_int "row sums to duration" s.Acct.duration
        (Array.fold_left ( + ) 0 row))
    s.Acct.cycles

(* Register [acct]'s metrics and return a reader of the live episode
   histogram it exports for [st], merged across its CPUs. The
   accountant records episodes only once registered, so this runs
   before the simulation. *)
let episode_hist acct st =
  let reg = Registry.create () in
  Acct.register_metrics acct reg ~labels:[];
  let labels = [ ("state", Acct.state_name st) ] in
  match
    List.find_map
      (fun (m : Registry.metric) ->
        match m.Registry.value with
        | Registry.Histogram read
          when m.Registry.name = "adios_cpu_state_episode_cycles"
               && m.Registry.labels = labels ->
          Some read
        | _ -> None)
      (Registry.metrics reg)
  with
  | Some read -> read
  | None -> Alcotest.fail "no episode histogram registered"

let test_accountant_noop_switch () =
  let sim = Sim.create () in
  let acct = Acct.create sim ~cpus:1 in
  let eps = episode_hist acct Acct.App_compute in
  Hosted.spawn sim (fun () ->
      Acct.switch acct ~cpu:0 Acct.App_compute;
      Proc.wait 40;
      (* switching to the current state must not close the episode *)
      Acct.switch acct ~cpu:0 Acct.App_compute;
      Proc.wait 60;
      Acct.switch acct ~cpu:0 Acct.Idle);
  Sim.run sim;
  let s = Acct.snapshot acct in
  let eps = eps () in
  check_int "one unsplit episode" 1 (Histogram.count eps);
  check_int "full length" 100 (Histogram.max_value eps);
  check_int "cycles unaffected" 100 (cycles_in s ~cpu:0 Acct.App_compute)

let test_merged_episodes () =
  let sim = Sim.create () in
  let acct = Acct.create sim ~cpus:2 in
  let merged = episode_hist acct Acct.App_compute in
  Hosted.spawn sim (fun () ->
      Acct.switch acct ~cpu:0 Acct.App_compute;
      Acct.switch acct ~cpu:1 Acct.App_compute;
      Proc.wait 30;
      Acct.switch acct ~cpu:1 Acct.Idle;
      Proc.wait 70;
      Acct.switch acct ~cpu:0 Acct.Idle);
  Sim.run sim;
  let merged = merged () in
  check_int "episodes from both cpus" 2 (Histogram.count merged);
  check_int "lengths preserved: min" 30 (Histogram.min_value merged);
  check_int "lengths preserved: max" 100 (Histogram.max_value merged)

(* Episodes closed before registration were never recorded, so a late
   registration is refused rather than exporting a partial histogram. *)
let test_register_after_switch () =
  let sim = Sim.create () in
  let acct = Acct.create sim ~cpus:2 in
  Hosted.spawn sim (fun () ->
      Acct.switch acct ~cpu:1 Acct.Dispatch;
      Proc.wait 10;
      Acct.switch acct ~cpu:1 Acct.Idle);
  Sim.run sim;
  check_bool "refused" true
    (match Acct.register_metrics acct (Registry.create ()) ~labels:[] with
    | () -> false
    | exception Invalid_argument _ -> true)

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

let prop_conservation =
  let gen =
    QCheck.make
      QCheck.Gen.(
        triple
          (oneofl [ Config.Adios; Config.Dilos; Config.Dilos_p; Config.Hermit ])
          (int_range 300 1500) (int_range 0 999))
  in
  QCheck.Test.make ~count:8
    ~name:"per-CPU accounted cycles partition every run exactly" gen
    (fun (sys, load, seed) ->
      let cfg = { (Config.default sys) with Config.seed } in
      let r =
        Runner.run cfg (small_array ())
          ~offered_krps:(float_of_int load)
          ~requests:2000 ()
      in
      let s = r.Runner.cpu in
      let exact =
        Array.for_all
          (fun row -> Array.fold_left ( + ) 0 row = s.Acct.duration)
          s.Acct.cycles
      in
      let share_sum =
        List.fold_left
          (fun acc (_, st) ->
            acc +. Acct.share s ~cpus:cfg.Config.workers st)
          0. Export.cpu_share_columns
      in
      exact
      && Array.length s.Acct.cycles = s.Acct.cpus
      && s.Acct.cpus = cfg.Config.workers + 1
      && Float.abs (share_sum -. 1.) < 1e-6)

(* The per-counter, per-phase and per-state arrays are indexed by
   [index], so it must number [all] densely and in order. *)
let test_dense_indices () =
  let dense what index all count =
    check
      (Alcotest.list Alcotest.int)
      (what ^ ": index maps all onto 0 .. count-1")
      (List.init count Fun.id) (List.map index all)
  in
  dense "Counter" Counter.index Counter.all Counter.count;
  dense "Phase" Phase.index Phase.all Phase.count;
  dense "Accountant.state" Acct.state_index Acct.states Acct.state_count

(* --- OpenMetrics -------------------------------------------------------- *)

(* One tiny deterministic run shared by the golden and round-trip tests. *)
let tiny_exposition =
  lazy
    (let reg = Registry.create () in
     let _ =
       Runner.run (Config.default Config.Adios) (small_array ())
         ~offered_krps:300. ~requests:500 ~metrics:reg ()
     in
     Openmetrics.render reg)

let test_render_validates () =
  match Openmetrics.validate (Lazy.force tiny_exposition) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("self-validation failed: " ^ msg)

(* Regenerate with
   cd test && OBS_REGEN_GOLDEN=1 dune exec ./test_obs.exe
   then copy the file out of _build into test/golden/. *)
let test_openmetrics_golden () =
  let got = Lazy.force tiny_exposition in
  match Sys.getenv_opt "OBS_REGEN_GOLDEN" with
  | Some _ ->
    Out_channel.with_open_bin "golden/tiny-metrics.prom" (fun oc ->
        Out_channel.output_string oc got)
  | None ->
    let want =
      In_channel.with_open_bin "golden/tiny-metrics.prom" In_channel.input_all
    in
    check_string "tiny fixed run matches the golden exposition" want got

let test_label_escaping () =
  let reg = Registry.create () in
  Registry.gauge reg ~name:"adios_esc" ~help:"h"
    ~labels:[ ("path", "a\"b\\c\nd") ]
    (fun () -> 1.);
  let s = Openmetrics.render reg in
  check_bool "backslash, quote and newline escaped" true
    (contains_sub s "adios_esc{path=\"a\\\"b\\\\c\\nd\"} 1");
  match Openmetrics.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let rejects name body =
  Alcotest.test_case name `Quick (fun () ->
      match Openmetrics.validate body with
      | Ok () -> Alcotest.fail "malformed exposition accepted"
      | Error _ -> ())

let validator_rejections =
  [
    rejects "missing EOF" "# TYPE adios_x gauge\nadios_x 1\n";
    rejects "sample without TYPE" "adios_x 1\n# EOF\n";
    rejects "counter sample without _total"
      "# TYPE adios_ops counter\nadios_ops 1\n# EOF\n";
    rejects "unparsable sample" "# TYPE adios_x gauge\nadios_x one\n# EOF\n";
    rejects "duplicate series"
      "# TYPE adios_x gauge\nadios_x 1\nadios_x 2\n# EOF\n";
    rejects "non-cumulative buckets"
      "# TYPE adios_h histogram\n\
       adios_h_bucket{le=\"16\"} 5\n\
       adios_h_bucket{le=\"64\"} 3\n\
       adios_h_bucket{le=\"+Inf\"} 5\n\
       adios_h_sum 10\n\
       adios_h_count 5\n\
       # EOF\n";
    rejects "missing +Inf bucket"
      "# TYPE adios_h histogram\n\
       adios_h_bucket{le=\"16\"} 5\n\
       adios_h_sum 10\n\
       adios_h_count 5\n\
       # EOF\n";
    rejects "count disagrees with +Inf"
      "# TYPE adios_h histogram\n\
       adios_h_bucket{le=\"16\"} 5\n\
       adios_h_bucket{le=\"+Inf\"} 5\n\
       adios_h_sum 10\n\
       adios_h_count 6\n\
       # EOF\n";
  ]

(* Every subsystem's [register_metrics] must be reached through
   [Runner.run]: a 3-node R = 2 cluster with one crash, profiled, is
   the configuration that registers all of them. *)
let test_all_families_rendered () =
  let reg = Registry.create () in
  let cfg =
    {
      (Config.default Config.Adios) with
      Config.cluster =
        {
          Cluster.nodes = 3;
          replication = 2;
          crashes = 1;
          crash_at = Adios_engine.Clock.of_us 500.;
        };
    }
  in
  let _ =
    Runner.run cfg (small_array ()) ~offered_krps:300. ~requests:500
      ~metrics:reg ~profile:true ()
  in
  let text = Openmetrics.render reg in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("exposition does not validate: " ^ msg));
  List.iter
    (fun prefix ->
      check_bool (prefix ^ " families rendered") true
        (contains_sub text ("\n# TYPE " ^ prefix)))
    [
      "adios_sys_"; "adios_sim_"; "adios_nic_"; "adios_pager_";
      "adios_reclaimer_"; "adios_cpu_"; "adios_cluster_"; "adios_req_";
    ]

(* Overload on a lossy fabric with one retry, stride prefetch into a
   4-deep QP, 5% local DRAM and a small queue and buffer pool: settings
   that drive most counters off zero. *)
let stressed system =
  {
    (Config.default system) with
    Config.fetch_timeout = 20_000;
    fetch_retries = 1;
    fault = { Injector.none with Injector.drop = 0.05; spike = 0.05; seed = 9 };
    prefetch = Config.Stride 4;
    qp_depth = 4;
    local_ratio = 0.05;
    central_queue_capacity = 16;
    buffer_count = 24;
  }

(* Value of the sample line [name{...} v] in an exposition. *)
let sample_value text name =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:(name ^ "{") line then
        let sp = String.rindex line ' ' in
        Some (String.sub line (sp + 1) (String.length line - sp - 1))
      else None)
    (String.split_on_char '\n' text)

(* Each counter reaches the CSV column and the metric sample named
   after it, with the same value. *)
let test_counters_agree () =
  let nonzero = Hashtbl.create 16 in
  List.iter
    (fun system ->
      let reg = Registry.create () in
      let r =
        Runner.run (stressed system) (small_array ()) ~offered_krps:2500.
          ~requests:3000 ~metrics:reg ()
      in
      let text = Openmetrics.render reg in
      let cells =
        List.combine Export.column_names
          (String.split_on_char ',' (Export.csv_row r))
      in
      List.iter
        (fun c ->
          let { Counter.name; gauge; _ } = Counter.describe c in
          let sample = "adios_sys_" ^ name ^ if gauge then "" else "_total" in
          let csv =
            match List.assoc_opt name cells with
            | Some v -> v
            | None -> Alcotest.fail ("no CSV column " ^ name)
          in
          check
            (Alcotest.option Alcotest.string)
            (Printf.sprintf "%s: %s = %s" r.Runner.system name sample)
            (Some csv) (sample_value text sample);
          if not (String.equal csv "0") then Hashtbl.replace nonzero name ())
        Counter.all)
    [ Config.Dilos_p; Config.Steal ];
  check_bool
    (Printf.sprintf "%d of %d counters exercised" (Hashtbl.length nonzero)
       Counter.count)
    true
    (Hashtbl.length nonzero >= 14)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "series_name" `Quick test_series_name;
          Alcotest.test_case "registration rules" `Quick test_registration_rules;
          Alcotest.test_case "scalar series" `Quick test_scalar_series;
        ] );
      ( "accountant",
        [
          Alcotest.test_case "partition" `Quick test_accountant_partition;
          Alcotest.test_case "no-op switch" `Quick test_accountant_noop_switch;
          Alcotest.test_case "episode merge" `Quick test_merged_episodes;
          Alcotest.test_case "register before the first switch" `Quick
            test_register_after_switch;
          QCheck_alcotest.to_alcotest prop_conservation;
        ] );
      ( "tables",
        [ Alcotest.test_case "dense indices" `Quick test_dense_indices ] );
      ( "openmetrics",
        [
          Alcotest.test_case "render validates" `Quick test_render_validates;
          Alcotest.test_case "golden exposition" `Quick test_openmetrics_golden;
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "every family rendered" `Quick
            test_all_families_rendered;
          Alcotest.test_case "counters agree with the CSV" `Quick
            test_counters_agree;
        ]
        @ validator_rejections );
    ]
