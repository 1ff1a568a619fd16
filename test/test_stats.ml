module Histogram = Adios_stats.Histogram
module Summary = Adios_stats.Summary
module Integrator = Adios_stats.Integrator
module Sim = Adios_engine.Sim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let test_hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "p99" 0 (Histogram.percentile h 99.);
  check_int "max" 0 (Histogram.max_value h);
  check (Alcotest.float 1e-9) "mean" 0. (Histogram.mean h)

let test_hist_small_exact () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "p50" 5 (Histogram.percentile h 50.);
  check_int "p100" 10 (Histogram.percentile h 100.);
  check_int "p10" 1 (Histogram.percentile h 10.);
  check_int "min" 1 (Histogram.min_value h);
  check_int "max" 10 (Histogram.max_value h);
  check (Alcotest.float 1e-9) "mean" 5.5 (Histogram.mean h)

(* histogram.mli promises allocation-free recording: once the bucket
   array has grown to cover the values, recording allocates nothing. *)
let test_hist_record_no_alloc () =
  let h = Histogram.create () in
  let record_all () =
    for i = 1 to 100_000 do
      Histogram.record h ((i * 7919) land 0xFFFFF)
    done
  in
  record_all ();
  let before = Gc.minor_words () in
  record_all ();
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words over 100k records" 0. words

let test_hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.record h (-5);
  check_int "clamped" 0 (Histogram.min_value h);
  check_int "count" 1 (Histogram.count h)

let test_hist_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 7 100;
  Histogram.record_n h 9 0;
  check_int "count" 100 (Histogram.count h);
  check_int "p50" 7 (Histogram.percentile h 50.)

let test_hist_large_values_resolution () =
  let h = Histogram.create () in
  Histogram.record h 1_000_000;
  let p = Histogram.percentile h 50. in
  let err = abs_float (float_of_int (p - 1_000_000)) /. 1e6 in
  check_bool "within 2% bucket error" true (err < 0.02)

let test_hist_cdf () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h i
  done;
  let cdf = Histogram.cdf h () in
  check_bool "nonempty" true (List.length cdf > 0);
  let fracs = List.map snd cdf in
  let sorted = List.sort compare fracs in
  check_bool "monotonic" true (fracs = sorted);
  check (Alcotest.float 1e-9) "ends at 1" 1. (List.nth fracs (List.length fracs - 1))

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 20;
  Histogram.merge_into ~dst:a b;
  check_int "count" 2 (Histogram.count a);
  check_int "max" 20 (Histogram.max_value a);
  check_int "min" 10 (Histogram.min_value a)

let test_hist_clear () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.clear h;
  check_int "count" 0 (Histogram.count h);
  check_int "max" 0 (Histogram.max_value h)

let prop_hist_percentile_tracks_exact =
  QCheck.Test.make ~name:"histogram percentile within bucket error" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 500) (int_range 0 5_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact = sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 |> max 0)) in
          let approx = Histogram.percentile h p in
          let tol = 0.02 *. float_of_int (max exact 64) in
          abs_float (float_of_int (approx - exact)) <= tol +. 1.)
        [ 50.; 90.; 99. ])

let prop_hist_mean_exact =
  QCheck.Test.make ~name:"histogram mean is exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 100_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let exact =
        float_of_int (List.fold_left ( + ) 0 values)
        /. float_of_int (List.length values)
      in
      abs_float (Histogram.mean h -. exact) < 1e-6)

let test_summary () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h i
  done;
  let s = Summary.of_histogram h in
  check_int "count" 1000 s.Summary.count;
  check_bool "p50 near 500" true (abs (s.Summary.p50 - 500) <= 10);
  check_bool "p99 near 990" true (abs (s.Summary.p99 - 990) <= 20);
  check_bool "ordering" true
    (s.Summary.p10 <= s.Summary.p50
    && s.Summary.p50 <= s.Summary.p99
    && s.Summary.p99 <= s.Summary.p999
    && s.Summary.p999 <= s.Summary.max)

let test_summary_empty () =
  let s = Summary.of_histogram (Histogram.create ()) in
  check_int "count" 0 s.Summary.count;
  check (Alcotest.float 1e-9) "mean" 0. s.Summary.mean;
  check_int "min" 0 s.Summary.min;
  check_int "p10" 0 s.Summary.p10;
  check_int "p999" 0 s.Summary.p999;
  check_int "max" 0 s.Summary.max

let test_summary_single_sample () =
  (* n = 1: every percentile rank clamps to the one sample, so P99.9
     must be the value itself — and values below 64 live in exact
     buckets, so there is no bucket rounding to hide behind *)
  let h = Histogram.create () in
  Histogram.record h 42;
  let s = Summary.of_histogram h in
  check_int "count" 1 s.Summary.count;
  check_int "min" 42 s.Summary.min;
  check_int "p10" 42 s.Summary.p10;
  check_int "p50" 42 s.Summary.p50;
  check_int "p99" 42 s.Summary.p99;
  check_int "p999" 42 s.Summary.p999;
  check_int "max" 42 s.Summary.max;
  check (Alcotest.float 1e-9) "mean" 42. s.Summary.mean

let test_hist_count_le_boundaries () =
  let h = Histogram.create () in
  (* one observation on each side of the exact/split-bucket seam at 64
     and one in the width-2 region beyond 128 *)
  List.iter (Histogram.record h) [ 0; 1; 63; 64; 65; 129 ];
  check_int "negative" 0 (Histogram.count_le h (-1));
  check_int "le 0" 1 (Histogram.count_le h 0);
  check_int "le 1" 2 (Histogram.count_le h 1);
  check_int "le 62" 2 (Histogram.count_le h 62);
  check_int "le 63" 3 (Histogram.count_le h 63);
  check_int "le 64" 4 (Histogram.count_le h 64);
  check_int "le 65" 5 (Histogram.count_le h 65);
  check_int "le 127" 5 (Histogram.count_le h 127);
  (* 129 lands in the bucket covering [128, 130), whose range starts at
     128: cumulative counts are at bucket resolution by contract *)
  check_int "le 128 includes its whole bucket" 6 (Histogram.count_le h 128);
  check_int "le max" 6 (Histogram.count_le h 1_000_000)

let test_integrator () =
  let sim = Sim.create () in
  let i = Integrator.create sim in
  Sim.schedule sim ~delay:10 (fun () -> Integrator.set i 2);
  Sim.schedule sim ~delay:30 (fun () -> Integrator.set i 0);
  Sim.schedule sim ~delay:50 (fun () -> ());
  Sim.run sim;
  (* level 2 for cycles [10,30): integral = 40 *)
  check_int "integral" 40 (Integrator.integral i)

let test_integrator_add_and_mean () =
  let sim = Sim.create () in
  let i = Integrator.create sim in
  Sim.schedule sim ~delay:0 (fun () -> Integrator.set i 1);
  Sim.schedule sim ~delay:100 (fun () -> Integrator.set i 0);
  Sim.schedule sim ~delay:200 (fun () -> ());
  Sim.run sim;
  let mean = Integrator.mean_over i ~since_integral:0 ~since_time:0 in
  check (Alcotest.float 1e-9) "mean 0.5" 0.5 mean

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "small exact" `Quick test_hist_small_exact;
          Alcotest.test_case "negative clamped" `Quick
            test_hist_negative_clamped;
          Alcotest.test_case "record_n" `Quick test_hist_record_n;
          Alcotest.test_case "large resolution" `Quick
            test_hist_large_values_resolution;
          Alcotest.test_case "cdf" `Quick test_hist_cdf;
          Alcotest.test_case "count_le bucket boundaries" `Quick
            test_hist_count_le_boundaries;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "clear" `Quick test_hist_clear;
          Alcotest.test_case "record allocation-free" `Quick
            test_hist_record_no_alloc;
          q prop_hist_percentile_tracks_exact;
          q prop_hist_mean_exact;
        ] );
      ( "summary",
        [
          Alcotest.test_case "of_histogram" `Quick test_summary;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "single sample" `Quick test_summary_single_sample;
        ] );
      ( "integrator",
        [
          Alcotest.test_case "integral" `Quick test_integrator;
          Alcotest.test_case "add/mean" `Quick test_integrator_add_and_mean;
        ] );
    ]
