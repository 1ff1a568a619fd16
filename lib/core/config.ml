type system = Dilos | Dilos_p | Adios | Hermit | Steal

let system_name = function
  | Dilos -> "DiLOS"
  | Dilos_p -> "DiLOS-P"
  | Adios -> "Adios"
  | Hermit -> "Hermit"
  | Steal -> "Steal"

let systems =
  [
    ("adios", Adios);
    ("dilos", Dilos);
    ("dilos-p", Dilos_p);
    ("hermit", Hermit);
    ("steal", Steal);
  ]

let system_of_name = function
  | "dilosp" -> Ok Dilos_p
  | s -> (
    match List.assoc_opt s systems with
    | Some system -> Ok system
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown system %S (valid: %s)" s
              (String.concat ", " (List.map fst systems)))))

type dispatch = Pf_aware | Round_robin | Partitioned | Work_stealing

type tx_mode = Tx_delegated | Tx_sync_spin | Tx_deferred

type prefetch = No_prefetch | Stride of int

let prefetch_name = function
  | No_prefetch -> "off"
  | Stride d -> Printf.sprintf "stride(%d)" d


let dispatch_name = function
  | Pf_aware -> "PF-Aware"
  | Round_robin -> "RR"
  | Partitioned -> "Partitioned"
  | Work_stealing -> "Work-Stealing"

type t = {
  system : system;
  dispatch : dispatch;
  tx_mode : tx_mode;
  prefetch : prefetch;
  workers : int;
  local_ratio : float;
  qp_depth : int;
  central_queue_capacity : int;
  buffer_count : int;
  reclaim : Adios_mem.Reclaimer.mode;
  reclaim_config : Adios_mem.Reclaimer.config;
  seed : int;
  fault : Adios_fault.Injector.config;
  fetch_timeout : int;
  fetch_retries : int;
  cluster : Adios_cluster.Cluster.config;
}

let default system =
  (* Steal is Adios's yield-based protocol on distributed run queues:
     everything matches Adios except the dispatch policy. *)
  let adios = match system with Adios | Steal -> true | _ -> false in
  {
    system;
    dispatch =
      (match system with
      | Adios -> Pf_aware
      | Steal -> Work_stealing
      | Dilos | Dilos_p | Hermit -> Round_robin);
    tx_mode = (if adios then Tx_delegated else Tx_deferred);
    prefetch = No_prefetch;
    workers = Params.workers;
    local_ratio = 0.20;
    qp_depth = Params.qp_depth;
    central_queue_capacity = Params.central_queue_capacity;
    buffer_count = Params.buffer_count;
    reclaim =
      (if adios then Adios_mem.Reclaimer.Proactive
       else Adios_mem.Reclaimer.Wakeup);
    reclaim_config = Adios_mem.Reclaimer.default_config;
    seed = 42;
    fault = Adios_fault.Injector.none;
    fetch_timeout = Adios_engine.Clock.of_us 50.;
    fetch_retries = 3;
    cluster = Adios_cluster.Cluster.default;
  }
