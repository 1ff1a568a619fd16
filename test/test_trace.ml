(* Tracing subsystem tests: ring sink semantics, Chrome JSON
   well-formedness, the trace-derived invariant checker on both real
   runs and hand-built violation streams, and the no-op guarantee
   (tracing must not change what the simulator computes). *)

module Event = Adios_trace.Event
module Sink = Adios_trace.Sink
module Timeline = Adios_trace.Timeline
module Chrome = Adios_trace.Chrome
module Checker = Adios_trace.Checker
module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Export = Adios_core.Export

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

(* --- ring sink ----------------------------------------------------------- *)

let emit_seq sink n =
  for i = 1 to n do
    Sink.emit sink ~ts:i ~kind:Event.Dispatch ~req:i ~worker:0 ~page:Event.none
  done

let test_ring_capacity () =
  let s = Sink.create ~capacity:4 in
  check_bool "enabled" true (Sink.enabled s);
  check_int "capacity" 4 (Sink.capacity s);
  emit_seq s 3;
  check_int "partial fill" 3 (Sink.length s);
  check_int "nothing dropped" 0 (Sink.dropped s);
  check_bool "not truncated" false (Sink.truncated s);
  emit_seq s 3;
  check_int "clamped to capacity" 4 (Sink.length s);
  check_int "overflow counted" 2 (Sink.dropped s);
  check_bool "truncated" true (Sink.truncated s)

let test_ring_evicts_oldest () =
  let s = Sink.create ~capacity:3 in
  emit_seq s 5;
  let reqs = List.map (fun (e : Event.t) -> e.req) (Sink.to_list s) in
  check (Alcotest.list Alcotest.int) "newest 3 survive, oldest first"
    [ 3; 4; 5 ] reqs;
  Sink.clear s;
  check_int "clear empties" 0 (Sink.length s);
  check_int "clear resets dropped" 0 (Sink.dropped s)

let test_null_sink () =
  check_bool "null disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null ~ts:1 ~kind:Event.Dispatch ~req:1 ~worker:0
    ~page:Event.none;
  check_int "null records nothing" 0 (Sink.length Sink.null)

(* --- minimal JSON validator ---------------------------------------------- *)

(* Recursive-descent syntax check — no JSON library in the dependency
   closure, and for well-formedness syntax is all we need. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then s.[!pos] else fail () in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
      | _ -> ()
  in
  let expect c = if peek () <> c then fail () else advance () in
  let literal l = String.iter expect l in
  let string_lit () =
    expect '"';
    let rec body () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
        | 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
            | _ -> fail ())
          done
        | _ -> fail ());
        body ()
      | c when Char.code c < 0x20 -> fail ()
      | _ -> advance (); body ()
    in
    body ()
  in
  let number () =
    if peek () = '-' then advance ();
    let digits () =
      let saw = ref false in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then fail ()
    in
    digits ();
    if !pos < n && s.[!pos] = '.' then (advance (); digits ());
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      advance ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
      digits ()
    end
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ()
          | '}' -> advance ()
          | _ -> fail ()
        in
        members ()
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements ()
          | ']' -> advance ()
          | _ -> fail ()
        in
        elements ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> number ());
    skip_ws ()
  in
  try
    value ();
    !pos = n
  with Exit -> false

let test_json_validator_sanity () =
  check_bool "accepts object" true
    (json_well_formed {|{"a":[1,2.5,-3e4],"b":"x\n","c":null}|});
  check_bool "rejects trailing comma" false (json_well_formed {|{"a":1,}|});
  check_bool "rejects bare word" false (json_well_formed "traceEvents");
  check_bool "rejects unterminated" false (json_well_formed {|{"a": [1, 2|})

(* --- traced runs --------------------------------------------------------- *)

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

let traced_run ?(cfg_tweak = fun c -> c) ?(capacity = 2_000_000) system ~load
    ~requests =
  let cfg = cfg_tweak (Config.default system) in
  let trace = Sink.create ~capacity in
  let r = Runner.run cfg (small_array ()) ~offered_krps:load ~requests ~trace () in
  (r, trace)

let all_systems = [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let test_checker_clean_on_real_runs () =
  List.iter
    (fun sys ->
      let _, trace = traced_run sys ~load:800. ~requests:4000 in
      check_bool (Config.system_name sys ^ " complete trace") false
        (Sink.truncated trace);
      let report = Checker.check (Sink.to_list trace) in
      check (Alcotest.list Alcotest.string)
        (Config.system_name sys ^ " invariants")
        [] report.Checker.errors;
      check_int
        (Config.system_name sys ^ " conservation from trace")
        report.Checker.enqueued report.Checker.completed)
    all_systems

let test_checker_clean_with_prefetch_and_stealing () =
  let tweak c =
    {
      c with
      Config.prefetch = Config.Stride 4;
      dispatch = Config.Work_stealing;
    }
  in
  let _, trace =
    traced_run Config.Adios ~load:900. ~requests:4000 ~cfg_tweak:tweak
  in
  let report = Checker.check (Sink.to_list trace) in
  check (Alcotest.list Alcotest.string) "invariants" [] report.Checker.errors

let test_checker_counts_match_counters () =
  let r, trace = traced_run Config.Adios ~load:800. ~requests:4000 in
  let report = Checker.check (Sink.to_list trace) in
  check_int "faults" (r.Runner.faults + r.Runner.coalesced)
    report.Checker.faults;
  check_int "coalesced" r.Runner.coalesced report.Checker.coalesced;
  check_int "evictions" r.Runner.evictions report.Checker.evictions;
  check_int "drops" r.Runner.dropped report.Checker.dropped

let test_chrome_json_well_formed () =
  let _, trace = traced_run Config.Adios ~load:900. ~requests:3000 in
  let json = Chrome.to_json (Sink.to_list trace) in
  check_bool "chrome trace parses" true (json_well_formed json);
  check_bool "has trace events key" true
    (String.length json > 20
    &&
    let sub = {|"traceEvents"|} in
    let rec find i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || find (i + 1))
    in
    find 0)

(* --- checker negative tests ---------------------------------------------- *)

let ev ?(ts = 0) ?(req = Event.none) ?(worker = Event.none)
    ?(page = Event.none) kind =
  { Event.ts; kind; req; worker; page }

let errors_of events = (Checker.check events).Checker.errors

let test_checker_rejects_bad_streams () =
  (* Run_end with no Run_begin *)
  check_bool "unmatched run end" true
    (errors_of [ ev ~ts:1 ~req:1 ~worker:0 Event.Run_end ] <> []);
  (* nested Run_begin on one worker *)
  check_bool "overlapping runs" true
    (errors_of
       [
         ev ~ts:1 ~req:1 ~worker:0 Event.Run_begin;
         ev ~ts:2 ~req:2 ~worker:0 Event.Run_begin;
       ]
    <> []);
  (* fault closed without Rdma_complete or Coalesce *)
  check_bool "fault from thin air" true
    (errors_of
       [
         ev ~ts:1 ~req:1 ~worker:0 ~page:7 Event.Fault_begin;
         ev ~ts:2 ~req:1 ~worker:0 ~page:7 Event.Fault_end;
       ]
    <> []);
  (* completion without an issue *)
  check_bool "orphan rdma completion" true
    (errors_of [ ev ~ts:1 ~req:1 ~worker:0 ~page:7 Event.Rdma_complete ] <> []);
  (* enqueued but never replied *)
  check_bool "lost request" true
    (errors_of [ ev ~ts:1 ~req:1 Event.Req_enqueue ] <> []);
  (* duplicate admission of one request id *)
  check_bool "duplicate enqueue" true
    (errors_of
       [ ev ~ts:1 ~req:1 Event.Req_enqueue; ev ~ts:2 ~req:1 Event.Req_enqueue ]
    <> [])

let test_checker_accepts_minimal_valid_stream () =
  let stream =
    [
      ev ~ts:0 ~req:1 Event.Req_enqueue;
      ev ~ts:1 ~req:1 ~worker:0 Event.Dispatch;
      ev ~ts:2 ~req:1 ~worker:0 Event.Run_begin;
      ev ~ts:3 ~req:1 ~worker:0 ~page:9 Event.Fault_begin;
      ev ~ts:4 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
      ev ~ts:4 ~worker:0 ~page:1 Event.Wqe_post;
      ev ~ts:9 ~worker:0 ~page:1 Event.Cqe;
      ev ~ts:9 ~req:1 ~worker:0 ~page:9 Event.Rdma_complete;
      ev ~ts:10 ~req:1 ~worker:0 ~page:9 Event.Fault_end;
      ev ~ts:11 ~req:1 ~worker:0 Event.Tx_submit;
      ev ~ts:12 ~req:1 ~worker:0 Event.Run_end;
      ev ~ts:15 ~req:1 Event.Tx_complete;
    ]
  in
  check (Alcotest.list Alcotest.string) "clean" [] (errors_of stream)

(* --- checker: fault-recovery events -------------------------------------- *)

(* One request whose demand fetch is lost, times out, and is recovered
   by a repost — the canonical fault-recovery span stream. The NIC's
   [Wqe_post] (WR id in [page]) immediately precedes the page-level
   [Rdma_issue] at the same timestamp, which is how the checker learns
   which page each WR carries. *)
let recovered_stream =
  [
    ev ~ts:0 ~req:1 Event.Req_enqueue;
    ev ~ts:1 ~req:1 ~worker:0 Event.Dispatch;
    ev ~ts:2 ~req:1 ~worker:0 Event.Run_begin;
    ev ~ts:3 ~req:1 ~worker:0 ~page:9 Event.Fault_begin;
    ev ~ts:4 ~worker:0 ~page:1 Event.Wqe_post;
    ev ~ts:4 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
    ev ~ts:6 ~worker:0 ~page:1 Event.Fault_injected;
    ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Fetch_timeout;
    ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Fetch_retry;
    ev ~ts:8 ~worker:0 ~page:2 Event.Wqe_post;
    ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
    ev ~ts:9 ~worker:0 ~page:2 Event.Cqe;
    ev ~ts:9 ~req:1 ~worker:0 ~page:9 Event.Rdma_complete;
    ev ~ts:10 ~req:1 ~worker:0 ~page:9 Event.Fault_end;
    ev ~ts:11 ~req:1 ~worker:0 Event.Tx_submit;
    ev ~ts:12 ~req:1 ~worker:0 Event.Run_end;
    ev ~ts:15 ~req:1 Event.Tx_complete;
  ]

(* The same request when the retry budget is exhausted: the timeout is
   surfaced as an error reply instead of a repost. *)
let errored_stream =
  [
    ev ~ts:0 ~req:1 Event.Req_enqueue;
    ev ~ts:1 ~req:1 ~worker:0 Event.Dispatch;
    ev ~ts:2 ~req:1 ~worker:0 Event.Run_begin;
    ev ~ts:3 ~req:1 ~worker:0 ~page:9 Event.Fault_begin;
    ev ~ts:4 ~worker:0 ~page:1 Event.Wqe_post;
    ev ~ts:4 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
    ev ~ts:6 ~worker:0 ~page:1 Event.Fault_injected;
    ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Fetch_timeout;
    ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Req_error;
    ev ~ts:10 ~req:1 ~worker:0 ~page:9 Event.Fault_end;
    ev ~ts:11 ~req:1 ~worker:0 Event.Tx_submit;
    ev ~ts:12 ~req:1 ~worker:0 Event.Run_end;
    ev ~ts:15 ~req:1 Event.Tx_complete;
  ]

let test_checker_accepts_fault_recovery () =
  check (Alcotest.list Alcotest.string) "recovered stream clean" []
    (errors_of recovered_stream);
  let report = Checker.check recovered_stream in
  check_int "loss seen" 1 report.Checker.injected;
  check_int "timeout seen" 1 report.Checker.timeouts;
  check_int "retry seen" 1 report.Checker.retries;
  check_int "loss resolved" 0 report.Checker.open_losses;
  check (Alcotest.list Alcotest.string) "errored stream clean" []
    (errors_of errored_stream);
  check_int "error surfaced" 1 (Checker.check errored_stream).Checker.errored

let drop_kind kind =
  List.filter (fun (e : Event.t) -> e.Event.kind <> kind)

let test_checker_rejects_broken_recovery () =
  (* a timed-out demand fetch must be retried or surfaced *)
  check_bool "timeout never resolved" true
    (errors_of (drop_kind Event.Fetch_retry recovered_stream) <> []);
  (* a retry out of nowhere *)
  check_bool "retry without timeout" true
    (errors_of (drop_kind Event.Fetch_timeout recovered_stream) <> []);
  (* nothing can complete a fetch whose completion was lost: move the
     original Cqe/Rdma_complete in front of the timeout *)
  let completed_lost =
    [
      ev ~ts:0 ~req:1 Event.Req_enqueue;
      ev ~ts:2 ~req:1 ~worker:0 Event.Run_begin;
      ev ~ts:3 ~req:1 ~worker:0 ~page:9 Event.Fault_begin;
      ev ~ts:4 ~worker:0 ~page:1 Event.Wqe_post;
      ev ~ts:4 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
      ev ~ts:6 ~worker:0 ~page:1 Event.Fault_injected;
      ev ~ts:7 ~req:1 ~worker:0 ~page:9 Event.Rdma_complete;
    ]
  in
  check_bool "completion of a lost fetch" true
    (errors_of completed_lost <> []);
  (* a loss on a WQE that was never posted *)
  check_bool "loss from thin air" true
    (errors_of [ ev ~ts:1 ~worker:0 ~page:1 Event.Fault_injected ] <> [])

let test_checker_fault_tolerant_mode () =
  (* a ring that kept only the tail of the recovery: the pre-loss spans
     are gone, so strict mode flags it and tolerant mode must not *)
  let suffix =
    [
      ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Fetch_timeout;
      ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Fetch_retry;
      ev ~ts:8 ~worker:0 ~page:2 Event.Wqe_post;
      ev ~ts:8 ~req:1 ~worker:0 ~page:9 Event.Rdma_issue;
      ev ~ts:9 ~worker:0 ~page:2 Event.Cqe;
      ev ~ts:9 ~req:1 ~worker:0 ~page:9 Event.Rdma_complete;
      ev ~ts:10 ~req:1 ~worker:0 ~page:9 Event.Fault_end;
      ev ~ts:11 ~req:1 ~worker:0 Event.Tx_submit;
      ev ~ts:12 ~req:1 ~worker:0 Event.Run_end;
      ev ~ts:15 ~req:1 Event.Tx_complete;
    ]
  in
  check_bool "strict flags the truncated recovery" true
    (errors_of suffix <> []);
  check (Alcotest.list Alcotest.string) "tolerant accepts it" []
    (Checker.check ~strict:false suffix).Checker.errors

let test_checker_fault_counts_match_counters () =
  let fault_tweak c =
    {
      c with
      Config.fault =
        {
          Adios_fault.Injector.none with
          Adios_fault.Injector.drop = 0.05;
          seed = 11;
        };
      fetch_timeout = Adios_engine.Clock.of_us 50.;
      fetch_retries = 3;
    }
  in
  let r, trace =
    traced_run Config.Adios ~load:800. ~requests:4000 ~cfg_tweak:fault_tweak
  in
  let report = Checker.check (Sink.to_list trace) in
  check (Alcotest.list Alcotest.string) "invariants" [] report.Checker.errors;
  check_bool "faults injected" true (r.Runner.faults_injected > 0);
  (* drop-only schedule: every injected anomaly is a loss the trace sees *)
  check_int "injected" r.Runner.faults_injected report.Checker.injected;
  check_int "timeouts" r.Runner.fetch_timeouts report.Checker.timeouts;
  check_int "retries" r.Runner.fetch_retries report.Checker.retries;
  check_int "errored" r.Runner.errored report.Checker.errored

let test_checker_tolerant_mode () =
  (* the same truncated stream errors strictly, passes tolerantly *)
  let truncated =
    [
      ev ~ts:9 ~req:1 ~worker:0 ~page:9 Event.Rdma_complete;
      ev ~ts:10 ~req:1 ~worker:0 ~page:9 Event.Fault_end;
      ev ~ts:11 ~req:1 ~worker:0 Event.Tx_submit;
      ev ~ts:12 ~req:1 ~worker:0 Event.Run_end;
    ]
  in
  check_bool "strict flags truncation" true (errors_of truncated <> []);
  let report = Checker.check ~strict:false truncated in
  check (Alcotest.list Alcotest.string) "tolerant accepts" []
    report.Checker.errors

(* --- purity: tracing must not change the simulation ---------------------- *)

let test_trace_does_not_perturb () =
  let cfg = Config.default Config.Adios in
  let app = small_array () in
  let bare = Runner.run cfg app ~offered_krps:900. ~requests:6000 () in
  let traced =
    Runner.run cfg app ~offered_krps:900. ~requests:6000
      ~trace:(Sink.create ~capacity:2_000_000)
      ()
  in
  check_string "identical result row" (Export.csv_row bare)
    (Export.csv_row traced)

let test_trace_deterministic () =
  let json () =
    let _, trace = traced_run Config.Adios ~load:900. ~requests:3000 in
    Chrome.to_json (Sink.to_list trace)
  in
  check_string "same seed, byte-identical trace" (json ()) (json ())

(* --- export arity -------------------------------------------------------- *)

let split_csv line = String.split_on_char ',' line

let test_export_arity () =
  let r, _ = traced_run Config.Adios ~load:800. ~requests:3000 in
  check_int "header arity = field count"
    (List.length Export.fields)
    (List.length (split_csv Export.csv_header));
  check_int "row arity = header arity"
    (List.length (split_csv Export.csv_header))
    (List.length (split_csv (Export.csv_row r)));
  check_bool "new columns present" true
    (List.for_all
       (fun c -> List.mem_assoc c Export.fields)
       [ "writeback_stalls"; "drops_queue"; "drops_buffer" ])

(* --- timeline ------------------------------------------------------------ *)

let test_timeline_csv () =
  let tl = Timeline.create () in
  Timeline.add_gauge tl ~name:"a" (fun () -> 1.5);
  Timeline.add_gauge tl ~name:"b" (fun () -> 2.0);
  Timeline.sample tl ~ts:2000;
  Timeline.sample tl ~ts:4000;
  check_int "rows" 2 (Timeline.length tl);
  let lines =
    String.split_on_char '\n' (String.trim (Timeline.to_csv tl))
  in
  check_int "header + 2 rows" 3 (List.length lines);
  List.iter
    (fun line -> check_int "arity" 4 (List.length (split_csv line)))
    lines;
  check_string "header" "ts_cycles,ts_us,a,b" (List.hd lines);
  check_bool "no gauges after sampling" true
    (try
       Timeline.add_gauge tl ~name:"c" (fun () -> 0.);
       false
     with Invalid_argument _ -> true)

(* One CSV line split as RFC 4180 readers split it: a comma inside a
   quoted field is data, and a doubled quote there is one quote. *)
let split_quoted line =
  let fields = ref [] and field = Buffer.create 64 and quoted = ref false in
  let n = String.length line and i = ref 0 in
  while !i < n do
    (match line.[!i] with
    | '"' when !quoted && !i + 1 < n && line.[!i + 1] = '"' ->
      Buffer.add_char field '"';
      incr i
    | '"' -> quoted := not !quoted
    | ',' when not !quoted ->
      fields := Buffer.contents field :: !fields;
      Buffer.clear field
    | c -> Buffer.add_char field c);
    incr i
  done;
  List.rev (Buffer.contents field :: !fields)

let test_timeline_header_quoting () =
  let tl = Timeline.create () in
  List.iter
    (fun name -> Timeline.add_gauge tl ~name (fun () -> 1.))
    [ "plain"; "m{a=1,b=2}"; "q\"uote" ];
  Timeline.sample tl ~ts:2000;
  match String.split_on_char '\n' (String.trim (Timeline.to_csv tl)) with
  | [ header; row ] ->
    check_string "header" "ts_cycles,ts_us,plain,\"m{a=1,b=2}\",\"q\"\"uote\""
      header;
    check
      (Alcotest.list Alcotest.string)
      "fields read back"
      [ "ts_cycles"; "ts_us"; "plain"; "m{a=1,b=2}"; "q\"uote" ]
      (split_quoted header);
    check_string "rows unquoted" "2000,1.000,1,1,1" row
  | lines ->
    Alcotest.failf "expected header + 1 row, got %d lines" (List.length lines)

(* A run's metrics snapshot: one row per sampling tick, the occupancy
   gauges among its series, and a header that a CSV reader splits into
   exactly as many fields as every row, labels and all. *)
let test_snapshot_in_run () =
  let cfg = Config.default Config.Adios in
  let sample_period = Adios_engine.Clock.of_us 5. in
  check_bool "non-positive period rejected" true
    (try
       ignore
         (Runner.run cfg (small_array ()) ~offered_krps:800. ~requests:10
            ~snapshot:(Timeline.create ()) ~sample_period:0 ());
       false
     with Invalid_argument _ -> true);
  let snap = Timeline.create () in
  let _ =
    Runner.run cfg (small_array ()) ~offered_krps:800. ~requests:3000
      ~snapshot:snap ~sample_period ()
  in
  let ticks = Timeline.length snap in
  check_bool "sampled" true (ticks > 10);
  check
    (Alcotest.list Alcotest.int)
    "one row per tick"
    (List.init ticks (fun i -> (i + 1) * sample_period))
    (List.map fst (Timeline.to_rows snap));
  List.iter
    (fun stem ->
      check_bool stem true
        (List.mem (stem ^ "{system=Adios}") (Timeline.names snap)))
    [
      "adios_sys_pending_depth";
      "adios_sys_ready_backlog";
      "adios_sys_busy_workers";
      "adios_sys_buffers_in_use";
      "adios_pager_inflight";
      "adios_pager_free_frames";
      "adios_nic_read_bytes_total";
    ];
  match String.split_on_char '\n' (String.trim (Timeline.to_csv snap)) with
  | [] -> Alcotest.fail "empty CSV"
  | header :: rows ->
    let arity = List.length (split_quoted header) in
    check_int "header fields = series + 2"
      (List.length (Timeline.names snap) + 2)
      arity;
    List.iter
      (fun row ->
        check_int "row arity = header arity" arity
          (List.length (split_quoted row)))
      rows

(* --- properties ---------------------------------------------------------- *)

let qcheck_cases =
  let gen =
    QCheck.make
      ~print:(fun (sys, load, requests, ratio) ->
        Printf.sprintf "(%s, %.0f krps, %d reqs, %.2f local)"
          (Config.system_name sys) load requests ratio)
      QCheck.Gen.(
        let* sys = oneofl all_systems in
        let* load = float_range 200. 1600. in
        let* requests = int_range 500 3000 in
        let* ratio = float_range 0.1 0.6 in
        return (sys, load, requests, ratio))
  in
  [
    QCheck.Test.make ~count:12 ~name:"checker clean on random workloads" gen
      (fun (sys, load, requests, ratio) ->
        let tweak c = { c with Config.local_ratio = ratio } in
        let _, trace = traced_run sys ~load ~requests ~cfg_tweak:tweak in
        let report = Checker.check (Sink.to_list trace) in
        Checker.ok report);
    QCheck.Test.make ~count:6 ~name:"trace purity on random workloads" gen
      (fun (sys, load, requests, ratio) ->
        let cfg =
          { (Config.default sys) with Config.local_ratio = ratio }
        in
        let app = small_array () in
        let bare = Runner.run cfg app ~offered_krps:load ~requests () in
        let traced =
          Runner.run cfg app ~offered_krps:load ~requests
            ~trace:(Sink.create ~capacity:2_000_000)
            ()
        in
        Export.csv_row bare = Export.csv_row traced);
  ]

let () =
  Alcotest.run "trace"
    [
      ( "sink",
        [
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
          Alcotest.test_case "ring evicts oldest" `Quick test_ring_evicts_oldest;
          Alcotest.test_case "null sink" `Quick test_null_sink;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "json validator sanity" `Quick
            test_json_validator_sanity;
          Alcotest.test_case "trace json well-formed" `Quick
            test_chrome_json_well_formed;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean on real runs" `Slow
            test_checker_clean_on_real_runs;
          Alcotest.test_case "clean with prefetch + stealing" `Quick
            test_checker_clean_with_prefetch_and_stealing;
          Alcotest.test_case "counts match counters" `Quick
            test_checker_counts_match_counters;
          Alcotest.test_case "rejects bad streams" `Quick
            test_checker_rejects_bad_streams;
          Alcotest.test_case "accepts minimal valid stream" `Quick
            test_checker_accepts_minimal_valid_stream;
          Alcotest.test_case "tolerant mode" `Quick test_checker_tolerant_mode;
          Alcotest.test_case "accepts fault recovery" `Quick
            test_checker_accepts_fault_recovery;
          Alcotest.test_case "rejects broken recovery" `Quick
            test_checker_rejects_broken_recovery;
          Alcotest.test_case "fault tolerant mode" `Quick
            test_checker_fault_tolerant_mode;
          Alcotest.test_case "fault counts match counters" `Quick
            test_checker_fault_counts_match_counters;
        ] );
      ( "purity",
        [
          Alcotest.test_case "tracing does not perturb" `Quick
            test_trace_does_not_perturb;
        ] );
      ( "export",
        [ Alcotest.test_case "column arity" `Quick test_export_arity ] );
      ( "timeline",
        [
          Alcotest.test_case "csv shape" `Quick test_timeline_csv;
          Alcotest.test_case "header quoting" `Quick
            test_timeline_header_quoting;
          Alcotest.test_case "snapshot in run" `Quick test_snapshot_in_run;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
