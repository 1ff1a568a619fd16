module Config = Adios_core.Config
module App = Adios_core.App
module Rng = Adios_engine.Rng
module Clock = Adios_engine.Clock
module Cluster = Adios_cluster.Cluster

type variant = string * (Config.t -> Config.t)

type t = {
  name : string;
  systems : Config.system list;
  apps : (string * (unit -> App.t)) list;
  variants : variant list;
  loads : float list;
  requests : int;
  seed : int;
  clusters : Cluster.config list;
}

type point = {
  index : int;
  system : Config.system;
  app_name : string;
  make_app : unit -> App.t;
  variant : variant;
  load : float;
  point_seed : int;
  cluster : Cluster.config;
}

let seed_bound = 0x3FFF_FFFF

(* Per-point seed: keyed by (sweep seed, point index) alone, so any
   subset of points replays with the seeds of the full sweep no matter
   which worker process runs it, or in what order. The sweep seed is
   first mixed through the splitmix chain so that sweeps with adjacent
   seeds do not produce adjacent point keys. *)
let point_seed ~seed ~index =
  let key = Rng.int (Rng.create seed) seed_bound + index in
  Rng.int (Rng.create key) seed_bound

let default_variant = ("default", Fun.id)

let make ?(systems = [ Config.Hermit; Config.Dilos; Config.Dilos_p; Config.Adios ])
    ?(apps = [ "array" ]) ?(variants = [ default_variant ]) ?(loads = [ 1000. ])
    ?(requests = 4000) ?(seed = 42) ?(clusters = [ Cluster.default ]) ~name () =
  let apps =
    List.map
      (fun n ->
        match Adios_apps.Registry.find n with
        | Some make -> (n, make)
        | None -> invalid_arg ("Spec.make: " ^ Adios_apps.Registry.unknown n))
      apps
  in
  List.iter
    (fun load ->
      if not (load > 0. && Float.is_finite load) then
        invalid_arg
          (Printf.sprintf "Spec.make: load %g is not a positive finite rate"
             load))
    loads;
  if requests <= 0 then invalid_arg "Spec.make: requests must be positive";
  { name; systems; apps; variants; loads; requests; seed; clusters }

let clustered spec = List.exists Cluster.enabled spec.clusters

(* App-major, then system, then variant, then cluster, then load: each
   (app, system, variant, cluster) series is a contiguous ascending-load
   block, the shape the figure oracles read. *)
let points spec =
  let index = ref (-1) in
  List.concat_map
    (fun (app_name, make_app) ->
      List.concat_map
        (fun system ->
          List.concat_map
            (fun variant ->
              List.concat_map
                (fun cluster ->
                  List.map
                    (fun load ->
                      incr index;
                      {
                        index = !index;
                        system;
                        app_name;
                        make_app;
                        variant;
                        load;
                        point_seed = point_seed ~seed:spec.seed ~index:!index;
                        cluster;
                      })
                    spec.loads)
                spec.clusters)
            spec.variants)
        spec.systems)
    spec.apps

let config point =
  {
    (snd point.variant (Config.default point.system)) with
    Config.seed = point.point_seed;
    cluster = point.cluster;
  }

let point_count spec =
  List.length spec.apps * List.length spec.systems * List.length spec.variants
  * List.length spec.clusters * List.length spec.loads

(* --- canonical reduced-scale specs (the golden tier) ------------------- *)

(* The grids bracket every system's P99.9 knee at 4000 requests: the
   lowest point is the low-load baseline, the highest sits past the
   collapse of the strongest system (Adios), so the knee oracle resolves
   a finite knee for all four systems. Golden CSVs under test/golden/
   are regenerated from these exact specs (adios_sweep --regen-golden);
   edit them only together with the goldens. *)

let reduced_array =
  make ~name:"array-reduced"
    ~loads:[ 200.; 600.; 1000.; 1300.; 1600.; 2000.; 2400.; 2700. ]
    ()

let reduced_memcached =
  make ~name:"memcached-reduced" ~apps:[ "memcached" ]
    ~loads:[ 150.; 300.; 500.; 700.; 850.; 1000.; 1150. ]
    ()

let reduced_rocksdb_scan =
  (* 200 krps is deliberately absent: DiLOS-P's P99.9 there sits within
     2% of the knee threshold, too fragile a boundary to freeze *)
  make ~name:"rocksdb-scan-reduced" ~apps:[ "rocksdb-scan" ]
    ~loads:[ 50.; 100.; 150.; 250.; 300.; 400.; 500. ]
    ()

let reduced = [ reduced_array; reduced_memcached; reduced_rocksdb_scan ]

(* Cluster golden: Adios on the array app at a single sub-knee load,
   over the topology grid nodes x replication x crashes. The crash
   lands at 1 ms — inside the measurement window of a 4000-request run
   at 1000 krps — so the failover path is exercised mid-measurement.
   The failover oracle pairs each crash row with its no-crash twin:
   R = 2 must ride through with zero errored requests, R = 1 must
   surface errors. *)
let cluster_reduced =
  let topo ~nodes ~replication ~crashes =
    { Cluster.nodes; replication; crashes; crash_at = Clock.of_us 1000. }
  in
  make ~name:"cluster-reduced" ~systems:[ Config.Adios ] ~loads:[ 1000. ]
    ~clusters:
      [
        topo ~nodes:2 ~replication:1 ~crashes:0;
        topo ~nodes:2 ~replication:1 ~crashes:1;
        topo ~nodes:2 ~replication:2 ~crashes:0;
        topo ~nodes:2 ~replication:2 ~crashes:1;
        topo ~nodes:4 ~replication:1 ~crashes:0;
        topo ~nodes:4 ~replication:1 ~crashes:1;
        topo ~nodes:4 ~replication:2 ~crashes:0;
        topo ~nodes:4 ~replication:2 ~crashes:1;
      ]
    ()

(* Steal golden: the distributed-dispatch contrast. Adios's centralized
   PF-aware queue vs the Steal variant's per-CPU run queues with idle
   CPUs stealing both queued arrivals and blocked-then-resumed requests,
   at double the standard core count — where a centralized queue is
   most stressed and stealing has the most siblings to scan. The grid
   brackets both systems' knees; the steal bundle additionally gates
   that Steal actually steals and that its tail stays within a
   documented factor of Adios's (see Oracle.check_steal). *)
let steal_reduced =
  make ~name:"steal-reduced" ~systems:[ Config.Adios; Config.Steal ]
    ~variants:[ ("workers=16", fun c -> { c with Config.workers = 16 }) ]
    ~loads:[ 400.; 1200.; 2000.; 2800.; 3600.; 4400.; 5200. ]
    ()

let all_goldens = reduced @ [ cluster_reduced; steal_reduced ]

let reduced_by_name name =
  List.find_opt (fun s -> String.equal s.name name) all_goldens
