(* lib/cluster unit tests: config clamping, placement arithmetic, the
   bytes each node registers, liveness-aware routing, the seeded crash
   schedule, background re-replication, and the trace checker's
   cluster rules on synthetic streams. Sim-driven cases build a real
   cluster over real links and NICs, so the failure path is exercised
   exactly as the system wires it. *)

module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Cluster = Adios_cluster.Cluster
module Event = Adios_trace.Event
module Checker = Adios_trace.Checker
module Sink = Adios_trace.Sink
module Registry = Adios_obs.Registry
module Config = Adios_core.Config
module Runner = Adios_core.Runner

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let pages = 64

let make ?trace ?(seed = 7) ?(pages = pages) cfg =
  let sim = Sim.create () in
  let c =
    Cluster.create ?trace sim cfg ~pages ~page_size:4096 ~gbps:100.
      ~wire_overhead:0. ~wqe_overhead_cycles:100 ~base_latency_cycles:1000
      ~qp_depth:16 ~throttle:0. ~rereplicate_gap_cycles:100 ~seed
  in
  (sim, c)

let topo ?(nodes = 4) ?(replication = 2) ?(crashes = 0)
    ?(crash_at = Clock.of_us 10.) () =
  { Cluster.nodes; replication; crashes; crash_at }

(* --- config --------------------------------------------------------------- *)

let test_normalize () =
  let n =
    Cluster.normalize
      {
        Cluster.default with
        Cluster.nodes = 0;
        replication = 9;
        crashes = -2;
      }
  in
  check_int "nodes clamped up" 1 n.Cluster.nodes;
  check_int "replication clamped to nodes" 1 n.Cluster.replication;
  check_int "crashes clamped" 0 n.Cluster.crashes;
  let r =
    Cluster.normalize
      { Cluster.default with Cluster.nodes = 4; replication = 9 }
  in
  check_int "replication capped at node count" 4 r.Cluster.replication

let test_enabled () =
  check_bool "default is the single-node system" false
    (Cluster.enabled Cluster.default);
  check_bool "extra nodes enable" true
    (Cluster.enabled { Cluster.default with Cluster.nodes = 2 });
  check_bool "crashes enable" true
    (Cluster.enabled { Cluster.default with Cluster.crashes = 1 })

(* --- placement ------------------------------------------------------------ *)

let test_striped_placement () =
  let _, c = make (topo ()) in
  for page = 0 to pages - 1 do
    check_int "primary = page mod nodes" (page mod 4)
      (Cluster.primary c ~page);
    check
      Alcotest.(list int)
      "replicas are successor nodes"
      [ page mod 4; (page + 1) mod 4 ]
      (Cluster.replicas c ~page)
  done

(* Each node registers the bytes of the pages it hosts. The reference
   is the per-page scan [Cluster.create] used to make: build each
   page's replica list and count the lists that name the node. *)
let reference_hosted ~nodes ~replication ~pages node =
  let hosted = ref 0 in
  for page = 0 to pages - 1 do
    let replicas =
      List.init replication (fun i -> ((page mod nodes) + i) mod nodes)
    in
    if List.mem node replicas then incr hosted
  done;
  !hosted

let prop_hosted_bytes =
  let gen =
    QCheck.Gen.(
      let* nodes = int_range 1 5 in
      let* replication = int_range 1 nodes in
      let+ pages = int_range 0 300 in
      (nodes, replication, pages))
  in
  let print (nodes, replication, pages) =
    Printf.sprintf "nodes=%d R=%d pages=%d" nodes replication pages
  in
  QCheck.Test.make ~name:"hosted bytes equal the replica-list scan"
    ~count:500 (QCheck.make ~print gen)
    (fun (nodes, replication, pages) ->
      let _, c = make ~pages (topo ~nodes ~replication ()) in
      Array.for_all
        (fun nd ->
          Adios_rdma.Memnode.registered_bytes nd.Cluster.memnode
          = 4096 * reference_hosted ~nodes ~replication ~pages nd.Cluster.id)
        (Cluster.nodes c))

(* --- routing -------------------------------------------------------------- *)

(* A read's node, and whether it is a failover: routed away from the
   head of the page's current replica list. *)
let route c ~page =
  let node = Cluster.route_read c ~page in
  (node, node <> Cluster.current_primary c ~page)

let test_routing_follows_liveness () =
  let _, c = make (topo ()) in
  let nodes = Cluster.nodes c in
  let page = 0 in
  (* healthy: the primary serves, no failover *)
  check (Alcotest.pair Alcotest.int Alcotest.bool) "healthy read" (0, false)
    (route c ~page);
  check Alcotest.(list int) "healthy write fan-out" [ 0; 1 ]
    (Cluster.write_targets c ~page);
  (* dead primary: reads fail over to the replica, writes shrink *)
  nodes.(0).Cluster.alive <- false;
  check (Alcotest.pair Alcotest.int Alcotest.bool) "failover read" (1, true)
    (route c ~page);
  check Alcotest.(list int) "degraded write fan-out" [ 1 ]
    (Cluster.write_targets c ~page);
  (* both replicas dead: route to the dead primary (the timeout ladder
     surfaces the error) and drop the write *)
  nodes.(1).Cluster.alive <- false;
  check (Alcotest.pair Alcotest.int Alcotest.bool) "all-dead read" (0, false)
    (route c ~page);
  check Alcotest.(list int) "all-dead write" [] (Cluster.write_targets c ~page)

(* every fault routes its read up to three times: healthy or after
   re-replication rewrote replica lists, a route allocates nothing *)
let test_routing_allocates_nothing () =
  List.iter
    (fun (name, cfg) ->
      let sim, c = make cfg in
      Cluster.start c;
      Sim.run sim;
      check_bool (name ^ ": lists rewritten iff a node crashed")
        (cfg.Cluster.crashes > 0)
        (Cluster.rereplicated c > 0);
      let sum = ref 0 in
      let route_all () =
        for page = 0 to pages - 1 do
          sum :=
            !sum + Cluster.route_read c ~page + Cluster.current_primary c ~page
        done
      in
      route_all ();
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        route_all ()
      done;
      let words = Gc.minor_words () -. before in
      check (Alcotest.float 0.) (name ^ ": minor words over 12,800 routes") 0.
        words)
    [
      ("striped", topo ());
      ("re-replicated", topo ~nodes:4 ~replication:2 ~crashes:1 ());
    ]

(* --- crash schedule ------------------------------------------------------- *)

let alive_count c =
  Array.fold_left
    (fun acc nd -> if nd.Cluster.alive then acc + 1 else acc)
    0 (Cluster.nodes c)

let test_crash_fires_on_schedule () =
  let sim, c = make (topo ~nodes:2 ~replication:1 ~crashes:1 ()) in
  Cluster.start c;
  check_int "alive before the schedule runs" 2 (alive_count c);
  Sim.run sim;
  check_int "one node failed" 1 (Cluster.nodes_failed c);
  check_int "one node left" 1 (alive_count c)

let test_never_kills_last_node () =
  let sim, c = make (topo ~nodes:2 ~replication:1 ~crashes:5 ()) in
  Cluster.start c;
  Sim.run sim;
  check_int "crash schedule stops at the last node" 1 (Cluster.nodes_failed c);
  check_int "a survivor remains" 1 (alive_count c)

let test_default_schedules_nothing () =
  let sim, c = make Cluster.default in
  Cluster.start c;
  let before = Sim.events_processed sim in
  Sim.run sim;
  check_int "start armed no events" before (Sim.events_processed sim)

(* --- re-replication ------------------------------------------------------- *)

let test_rereplication_restores_copies () =
  let trace = Sink.create ~capacity:65536 in
  let sim, c = make ~trace (topo ~nodes:4 ~replication:2 ~crashes:1 ()) in
  Cluster.start c;
  Sim.run sim;
  check_int "one node failed" 1 (Cluster.nodes_failed c);
  let dead =
    match
      Array.find_opt (fun nd -> not nd.Cluster.alive) (Cluster.nodes c)
    with
    | Some nd -> nd.Cluster.id
    | None -> Alcotest.fail "no dead node after the crash schedule"
  in
  check_bool "pages were re-replicated" true (Cluster.rereplicated c > 0);
  check_int "backlog drained" 0 (Cluster.rereplication_backlog c);
  for page = 0 to pages - 1 do
    let reps = Cluster.replicas c ~page in
    check_bool "no replica list references the dead node" false
      (List.mem dead reps);
    check_int "replication factor restored" 2
      (List.length (List.sort_uniq compare reps));
    check_int "the current primary heads the replica list" (List.hd reps)
      (Cluster.current_primary c ~page);
    let node = Cluster.route_read c ~page in
    check_bool "reads never route to the dead node" true (node <> dead)
  done;
  (* the repair legs kept the trace's WQE accounting exact *)
  let report = Checker.check (Sink.to_list trace) in
  check (Alcotest.list Alcotest.string) "trace invariants" []
    report.Checker.errors;
  check_int "checker saw the failure" 1 report.Checker.nodes_failed;
  check_int "checker saw the repairs" (Cluster.rereplicated c)
    report.Checker.rereplicated

let test_two_nodes_cannot_rereplicate () =
  (* with R = nodes there is no spare: the cluster stays degraded
     without wedging the backlog *)
  let sim, c = make (topo ~nodes:2 ~replication:2 ~crashes:1 ()) in
  Cluster.start c;
  Sim.run sim;
  check_int "nothing re-replicated" 0 (Cluster.rereplicated c);
  check_int "backlog still drained" 0 (Cluster.rereplication_backlog c)

(* --- metrics -------------------------------------------------------------- *)

let test_node_labelled_metrics () =
  let _, c = make (topo ~nodes:2 ~replication:1 ()) in
  let reg = Registry.create () in
  Cluster.register_metrics c reg ~labels:[ ("system", "Adios") ];
  let series = List.map Registry.series_name (Registry.metrics reg) in
  List.iter
    (fun node ->
      let want =
        Printf.sprintf "adios_cluster_node_alive{node=%d,system=Adios}" node
      in
      check_bool (want ^ " exported") true (List.mem want series))
    [ 0; 1 ]

(* A clustered run registers each node's NIC once, under its node label:
   an unlabelled copy of node 0's would count its posts twice in any sum
   over the family. *)
let test_nic_series_node_labelled () =
  let cfg =
    {
      (Config.default Config.Adios) with
      Config.cluster = topo ~nodes:2 ~replication:1 ();
    }
  in
  let reg = Registry.create () in
  ignore
    (Runner.run cfg
       (Adios_apps.Array_bench.app ~pages:2048 ())
       ~offered_krps:500. ~requests:1000 ~metrics:reg ());
  let nic =
    List.filter
      (fun m -> String.starts_with ~prefix:"adios_nic_" m.Registry.name)
      (Registry.metrics reg)
  in
  check_bool "NIC series registered" true (nic <> []);
  List.iter
    (fun m ->
      check_bool
        (Registry.series_name m ^ " carries a node label")
        true
        (List.mem_assoc "node" m.Registry.labels))
    nic

(* --- checker rules on synthetic streams ----------------------------------- *)

let ev ?(ts = 0) ?(req = Event.none) ?(worker = Event.none)
    ?(page = Event.none) kind =
  { Event.ts; kind; req; worker; page }

let errors_of events = (Checker.check events).Checker.errors

let test_checker_cluster_rules () =
  check_bool "double node failure rejected" true
    (errors_of
       [ ev ~ts:1 ~page:0 Event.Node_failed; ev ~ts:2 ~page:0 Event.Node_failed ]
    <> []);
  check_bool "failover with no failed node rejected" true
    (errors_of [ ev ~ts:1 ~req:3 ~page:9 Event.Failover ] <> []);
  check_bool "re-replication with no failed node rejected" true
    (errors_of [ ev ~ts:1 ~page:9 Event.Rereplicated ] <> []);
  let legal =
    [
      ev ~ts:1 ~page:0 Event.Node_failed;
      ev ~ts:2 ~req:3 ~page:9 Event.Failover;
      ev ~ts:3 ~page:9 Event.Rereplicated;
    ]
  in
  check (Alcotest.list Alcotest.string) "failure then recovery is legal" []
    (errors_of legal);
  let report = Checker.check legal in
  check_int "nodes_failed counted" 1 report.Checker.nodes_failed;
  check_int "failovers counted" 1 report.Checker.failovers;
  check_int "rereplicated counted" 1 report.Checker.rereplicated

let () =
  Alcotest.run "cluster"
    [
      ( "config",
        [
          Alcotest.test_case "normalize clamps" `Quick test_normalize;
          Alcotest.test_case "enabled" `Quick test_enabled;
        ] );
      ( "placement",
        [
          Alcotest.test_case "striped" `Quick test_striped_placement;
          QCheck_alcotest.to_alcotest prop_hosted_bytes;
        ] );
      ( "routing",
        [
          Alcotest.test_case "follows liveness" `Quick
            test_routing_follows_liveness;
          Alcotest.test_case "allocates nothing" `Quick
            test_routing_allocates_nothing;
        ] );
      ( "failure",
        [
          Alcotest.test_case "crash fires on schedule" `Quick
            test_crash_fires_on_schedule;
          Alcotest.test_case "never kills last node" `Quick
            test_never_kills_last_node;
          Alcotest.test_case "default schedules nothing" `Quick
            test_default_schedules_nothing;
          Alcotest.test_case "re-replication restores copies" `Quick
            test_rereplication_restores_copies;
          Alcotest.test_case "no spare, no wedge" `Quick
            test_two_nodes_cannot_rereplicate;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "node-labelled series" `Quick
            test_node_labelled_metrics;
          Alcotest.test_case "every NIC series node-labelled" `Quick
            test_nic_series_node_labelled;
        ] );
      ( "checker",
        [
          Alcotest.test_case "cluster rules" `Quick test_checker_cluster_rules;
        ] );
    ]
