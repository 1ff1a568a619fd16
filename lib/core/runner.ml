module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Rng = Adios_engine.Rng
module Raw_eth = Adios_rdma.Raw_eth
module Link = Adios_rdma.Link
module Histogram = Adios_stats.Histogram
module Summary = Adios_stats.Summary

module Timeline = Adios_trace.Timeline
module Trace_sink = Adios_trace.Sink
module Profiler = Adios_prof.Profiler
module Accountant = Adios_obs.Accountant
module Registry = Adios_obs.Registry
module Cluster = Adios_cluster.Cluster

type result = {
  system : string;
  app : string;
  requests : int;
  offered_krps : float;
  achieved_krps : float;
  drop_fraction : float;
  e2e : Summary.t;
  kind_summaries : (string * Summary.t) list;
  e2e_hist : Histogram.t;
  rdma_util : float;
  faults : int;
  coalesced : int;
  evictions : int;
  preemptions : int;
  qp_stalls : int;
  frame_stalls : int;
  writeback_stalls : int;
  drops_queue : int;
  drops_buffer : int;
  prefetches : int * int * int;
  admitted : int;
  handled : int;
  completed : int;
  dropped : int;
  buffer_hwm : int;
  errored : int;
  fetch_timeouts : int;
  fetch_retries : int;
  retries_hwm : int;
  faults_injected : int;
  drops_qp : int;
  steals : int;
  spans_dropped : int;
  nodes : int;
  replication : int;
  crashes : int;
  nodes_failed : int;
  failovers : int;
  rereplicated : int;
  lost_writes : int;
  dead_reads : int;
  sim_events : int;
  clamped_schedules : int;
  cpu : Accountant.snapshot;
  prof : Profiler.summary option;
      (* per-request phase attribution, present when the run profiled *)
}

let run cfg app ~offered_krps ~requests ?image ?trace ?metrics ?snapshot
    ?(sample_period = Clock.of_us 5.) ?(profile = false) () =
  if sample_period <= 0 then
    invalid_arg "Runner.run: sample_period must be positive";
  (* a zero or NaN rate makes the mean gap infinite, and [int_of_float]
     would turn it into [min_int]: every arrival at t = 0 *)
  if not (offered_krps > 0. && Float.is_finite offered_krps) then
    invalid_arg "Runner.run: offered_krps must be positive and finite";
  if requests <= 0 then invalid_arg "Runner.run: requests must be positive";
  let image =
    match image with Some image -> image | None -> App.build_image app
  in
  app.App.adopt image.App.handles;
  let warmup = requests / 10 in
  let sim = Sim.create () in
  let prof = if profile then Some (Profiler.create ()) else None in
  let e2e_hist = Histogram.create () in
  let kind_hists =
    Array.init (Array.length app.App.kinds) (fun _ -> Histogram.create ())
  in
  let replies = ref 0 and recorded = ref 0 in
  let on_reply (req : Request.t) =
    incr replies;
    (match (prof, req.Request.prof) with
    | Some p, Some r ->
      (* warmup and errored requests are finalized (the sum invariant
         holds for them too) but kept out of the banded population,
         mirroring the e2e histogram's filter below *)
      Profiler.finalize p r ~done_at:req.Request.done_at
        ~errored:req.Request.errored
        ~measured:(req.Request.id > warmup)
    | (Some _ | None), _ -> ());
    (* error replies count toward conservation but would poison the
       latency statistics: they return early, after the retry budget *)
    if req.Request.id > warmup && not req.Request.errored then begin
      incr recorded;
      Histogram.record e2e_hist (Request.e2e_latency req);
      let kind = req.Request.spec.Request.kind in
      if kind >= 0 && kind < Array.length kind_hists then
        Histogram.record kind_hists.(kind) (Request.e2e_latency req)
    end
  in
  let system =
    System.create ?trace ?prof sim cfg app ~arena:image.App.arena ~on_reply
  in
  let labels = [ ("system", Config.system_name cfg.Config.system) ] in
  (match metrics with
  | Some reg -> System.register_metrics system reg ~labels
  | None -> ());
  (match (metrics, prof) with
  | Some reg, Some p -> Profiler.register_metrics p reg ~labels
  | (Some _ | None), _ -> ());
  (match snapshot with
  | Some snap ->
    let reg =
      match metrics with
      | Some reg -> reg
      | None ->
        let reg = Registry.create () in
        System.register_metrics system reg ~labels;
        reg
    in
    Registry.attach_timeline reg snap;
    (* a plain actor: its events shift sequence numbers but touch
       nothing in the datapath, so a snapshot only adds rows to its CSV
       (which is why sweeps run without one) *)
    let rec sample () =
      Timeline.sample snap ~ts:(Sim.now sim);
      Sim.schedule sim ~delay:sample_period sample
    in
    Sim.schedule sim ~delay:0 (fun () ->
        Sim.schedule sim ~delay:sample_period sample)
  | None -> ());
  let client_link =
    Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead
      ()
  in
  let to_compute =
    Raw_eth.create sim ~link:client_link
      ~latency_cycles:Params.eth_latency_cycles
      ~deliver:(fun ~rx_at req -> System.receive system ~rx_at req)
  in
  (* measurement window bookkeeping, armed when the warmup ends *)
  let window_start = ref 0 in
  let fetch_snapshot = ref 0 in
  let drops_at_start = ref 0 in
  let loadgen_rng = Rng.create (cfg.Config.seed + 1) in
  let mean_gap =
    float_of_int Clock.cycles_per_sec /. (offered_krps *. 1000.)
  in
  (* The load generator: one first event, then one per arrival, each
     drawing the gap to the next after sending its own request. *)
  let gap () = int_of_float (Rng.exponential loadgen_rng ~mean:mean_gap) in
  let sent = ref 0 in
  let rec arrive () =
    incr sent;
    let i = !sent in
    if i = warmup + 1 then begin
      window_start := Sim.now sim;
      fetch_snapshot := Cluster.total_rx_bytes (System.cluster system);
      drops_at_start := System.drops system
    end;
    let spec = app.App.gen loadgen_rng in
    let req = Request.make ~id:i ~spec ~tx_at:(Sim.now sim) in
    Raw_eth.send to_compute ~bytes:spec.Request.req_bytes req;
    if i < requests then Sim.schedule sim ~delay:(gap ()) arrive
  in
  Sim.schedule sim ~delay:0 (fun () -> Sim.schedule sim ~delay:(gap ()) arrive);
  let horizon = Clock.of_sec 30. in
  let finished () = !replies + System.drops system >= requests in
  while (not (finished ())) && Sim.now sim < horizon && Sim.step sim do
    ()
  done;
  Adios_mem.Reclaimer.stop (System.reclaimer system);
  let window = max 1 (Sim.now sim - !window_start) in
  let window_sec = Clock.to_sec window in
  let recorded_drops = System.drops system - !drops_at_start in
  let offered_window =
    float_of_int (requests - warmup) /. window_sec /. 1000.
  in
  let cluster = System.cluster system in
  let fetched_bytes =
    Cluster.total_rx_bytes cluster - !fetch_snapshot
  in
  (* utilization over the aggregate fetch capacity: one link per memory
     node (node_count = 1 divides by exactly 1.0, bit-for-bit) *)
  let rdma_util =
    float_of_int fetched_bytes
    *. (1. +. Params.wire_overhead)
    *. 8.
    /. (Params.link_gbps *. 1e9 *. window_sec
        *. float_of_int (Cluster.node_count cluster))
  in
  let kind_summaries =
    Array.to_list
      (Array.mapi
         (fun i h -> (app.App.kinds.(i), Summary.of_histogram h))
         kind_hists)
  in
  let count = System.counter system in
  {
    system = Config.system_name cfg.Config.system;
    app = app.App.name;
    requests;
    offered_krps = offered_window;
    achieved_krps = float_of_int !recorded /. window_sec /. 1000.;
    drop_fraction =
      float_of_int recorded_drops /. float_of_int (max 1 (requests - warmup));
    e2e = Summary.of_histogram e2e_hist;
    kind_summaries;
    e2e_hist;
    rdma_util;
    faults = count Counter.Faults;
    coalesced = count Counter.Coalesced;
    evictions = Adios_mem.Reclaimer.evictions (System.reclaimer system);
    preemptions = count Counter.Preemptions;
    qp_stalls = count Counter.Qp_stalls;
    frame_stalls = count Counter.Frame_stalls;
    writeback_stalls = count Counter.Writeback_stalls;
    drops_queue = count Counter.Drops_queue;
    drops_buffer = count Counter.Drops_buffer;
    prefetches =
      (let ps = System.prefetch_stats system in
       ( ps.Adios_mem.Prefetcher.issued,
         ps.Adios_mem.Prefetcher.useful,
         ps.Adios_mem.Prefetcher.wasted ));
    admitted = count Counter.Admitted;
    handled = count Counter.Handled;
    completed = !replies;
    dropped = System.drops system;
    buffer_hwm =
      Adios_unithread.Buffer_pool.high_watermark (System.buffers system);
    errored = count Counter.Errored;
    fetch_timeouts = count Counter.Fetch_timeouts;
    fetch_retries = count Counter.Fetch_retries;
    retries_hwm = count Counter.Retries_hwm;
    faults_injected = System.faults_injected system;
    drops_qp = count Counter.Drops_qp;
    steals = count Counter.Steals;
    spans_dropped =
      (match trace with Some tr -> Trace_sink.dropped tr | None -> 0);
    nodes = Cluster.node_count cluster;
    replication = (Cluster.config cluster).Cluster.replication;
    crashes = (Cluster.config cluster).Cluster.crashes;
    nodes_failed = Cluster.nodes_failed cluster;
    failovers = Cluster.failovers cluster;
    rereplicated = Cluster.rereplicated cluster;
    lost_writes = Cluster.lost_writes cluster;
    dead_reads = Cluster.dead_reads cluster;
    sim_events = Sim.events_processed sim;
    clamped_schedules = Sim.clamped_schedules sim;
    cpu = Accountant.snapshot (System.accountant system);
    prof = Option.map (fun p -> Profiler.summary p) prof;
  }
