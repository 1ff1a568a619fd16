(** Configuration of one system-under-test instance. *)

(** Which paper system the compute node runs. *)
type system =
  | Dilos  (** busy-waiting page-fault handling (the DiLOS baseline) *)
  | Dilos_p  (** DiLOS plus Concord-style 5 us preemptive scheduling *)
  | Adios  (** yield-based handling with unithreads *)
  | Hermit  (** kernel-based busy-waiting MD *)
  | Steal
      (** Adios's yield-based protocol on per-CPU run queues: arrivals
          are sprayed round-robin, idle CPUs steal both queued arrivals
          and blocked-then-resumed requests from siblings — the
          distributed-dispatch contrast to the paper's centralized
          Algorithm 1 (cf. the scheduling studies in Atlas and MIND) *)

val system_name : system -> string

val systems : (string * system) list
(** Every system under its command-line name ([adios], [dilos],
    [dilos-p], [hermit], [steal]), in the order the front ends list
    them. *)

val system_of_name : string -> (system, [> `Msg of string ]) result
(** Parse a command-line name from {!systems} (or the alias [dilosp]);
    the error lists the valid names. *)

(** Request dispatching / queueing policy. The first two are single
    (centralized) queue variants; the last two are the designs section
    3.4 argues against, implemented for the comparison. *)
type dispatch =
  | Pf_aware  (** Algorithm 1: idle workers sorted by outstanding fetches *)
  | Round_robin  (** single queue, Shinjuku/Concord baseline *)
  | Partitioned
      (** d-FCFS: arrivals are spread round-robin over per-worker queues
          with no rebalancing (the shared-nothing model of ZygOS' study) *)
  | Work_stealing
      (** per-worker queues; an idle worker scans its siblings and
          steals the head of the longest queue (approximated c-FCFS) *)

val dispatch_name : dispatch -> string

(** How reply-transmission completions are handled. *)
type tx_mode =
  | Tx_delegated
      (** Adios: the TX CQE is raised on the dispatcher's CQ, which
          recycles the buffer while the worker moves on (Fig. 6) *)
  | Tx_sync_spin
      (** naive design: the worker busy-waits for the TX CQE before
          taking new work (the "without polling delegation" variant of
          Fig. 9) *)
  | Tx_deferred
      (** run-to-completion baselines: the worker fires and forgets;
          completions are reaped lazily off the worker's critical path
          (DiLOS' breakdown in Fig. 2(c) shows no TX wait) *)

(** Remote-page prefetching at the fault handler. *)
type prefetch =
  | No_prefetch
  | Stride of int
      (** Leap-style majority-stride detection per request; on a
          detected stride, issue up to the given number of prefetch
          READs alongside the demand fetch *)

val prefetch_name : prefetch -> string

type t = {
  system : system;
  dispatch : dispatch;
  tx_mode : tx_mode;
  prefetch : prefetch;
  workers : int;
  local_ratio : float;  (** local DRAM as a fraction of the working set *)
  qp_depth : int;
  central_queue_capacity : int;
  buffer_count : int;
  reclaim : Adios_mem.Reclaimer.mode;
  reclaim_config : Adios_mem.Reclaimer.config;
  seed : int;
  fault : Adios_fault.Injector.config;
      (** fabric anomaly schedule ({!Adios_fault.Injector.none} = clean
          fabric, the byte-identical default) *)
  fetch_timeout : int;
      (** cycles before an unanswered page fetch is declared lost and
          reposted (default 50 us); doubles per retry up to 64x. Used
          only where a completion can be lost: {!System} arms fetch
          timers iff [fault] is enabled or [cluster] crashes a node, so
          a clean run schedules no timer. Must be positive there. *)
  fetch_retries : int;
      (** reposts allowed per fetch before the request completes with an
          error reply *)
  cluster : Adios_cluster.Cluster.config;
      (** memory-node topology ({!Adios_cluster.Cluster.default} = one
          node, R = 1 — the byte-identical single-node system) *)
}

val default : system -> t
(** The paper's standard setup for [system]: 8 workers, 20% local DRAM,
    PF-aware dispatch + delegation for Adios, round-robin + synchronous
    TX for the busy-waiting systems, proactive reclaimer for Adios and
    wakeup reclaimer for the baselines. *)
