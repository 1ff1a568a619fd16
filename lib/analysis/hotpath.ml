(* Zero-allocation manifest: the functions the [zero-alloc] typed rule
   walks. These are the simulator's steady-state hot paths — the
   per-event and per-completion code the paper's microsecond budget
   lives in. perfbench's per-layer microbenchmarks (perfbench/README.md)
   and the differential proof in test_engine_diff pin their behaviour;
   this manifest pins their allocation profile, so a refactor that
   quietly re-introduces a closure or a boxed option per event is a
   lint finding, not a silent throughput regression. An entry whose
   file is no longer in the linted tree is a finding too, so moving or
   deleting a hot-path file cannot drop its certification unnoticed.

   Names are dotted toplevel paths within the file ([Cq.push] is
   [let push] inside [module Cq]). [cold] lists the callees the
   one-level descent must not follow: deliberate slow paths (capacity
   growth, error reporting) that allocate by design and are amortised
   or unreachable in steady state.

   The boxed-record heap under the reference scheduler that
   test_engine_diff runs [Sim] against lives in test/heap_reference.ml,
   outside the linted tree: allocating is its whole point. *)

type entry = {
  file : string;  (** repo-relative source path *)
  functions : string list;
      (** dotted toplevel names that must not allocate *)
  cold : string list;
      (** direct callees exempt from descent: slow paths that allocate
          by design *)
}

let manifest =
  [
    { file = "lib/engine/sim.ml";
      functions =
        [
          (* public scheduling surface *)
          "schedule";
          "schedule_at";
          "timer_at";
          "timer_after";
          "cancel";
          "timer_pending";
          "step";
          "run";
          "run_until";
          (* internals the surface bottoms out in *)
          "add_event";
          "alloc_cell";
          "free_cell";
          "cell_dead";
          "wheel_add";
          "wheel_unlink_head";
          "wheel_scan";
          "wheel_peek";
          "heap_push";
          "heap_pop_top";
          "heap_top";
        ];
      cold = [ "grow_pool"; "heap_grow" ];
    };
    { file = "lib/engine/proc.ml";
      (* every idle worker and the dispatcher park on a gate: the effect
         is made once per gate, and a signal schedules the parked
         process's own wake-up *)
      functions = [ "Gate.await"; "Gate.signal" ];
      cold = [];
    };
    { file = "lib/engine/rng.ml";
      (* every arrival gap, app key and jitter draw; the state is
         unboxed, so a draw allocates nothing *)
      functions = [ "bits64"; "int" ];
      cold = [];
    };
    { file = "lib/rdma/verbs.ml";
      functions = [ "Cq.push"; "Cq.drain" ];
      cold = [ "Cq.grow" ];
    };
    { file = "lib/rdma/nic.ml";
      (* a work request's whole life: the post into its QP's ring, the
         engine picking and serializing it, the service-end event, and
         the in-order delivery (parked or not) that pushes its CQE. The
         events are made once, per engine and per ring slot; the fault
         fabric's verdict runs only with an injector, and the payload
         rings are sized by a QP's first post *)
      functions =
        [ "post"; "serve"; "next_qp"; "finish_service"; "arrive"; "deliver" ];
      cold = [ "fault_delay"; "size_payloads" ];
    };
    { file = "lib/rdma/link.ml";
      (* every WR's serialization; the float arithmetic reruns only
         when a link's payload size changes *)
      functions = [ "serialize_cycles"; "occupy" ];
      cold = [ "nominal_cycles" ];
    };
    { file = "lib/rdma/raw_eth.ml";
      (* every request and every reply packet: the send into the ring,
         the serialization start, and the channel's two events. The
         ring doubles when full *)
      functions = [ "send"; "kick"; "serialization_end"; "delivery" ];
      cold = [ "grow" ];
    };
    { file = "lib/cluster/cluster.ml";
      (* every fault routes its read up to three times *)
      functions = [ "route_read"; "current_primary" ];
      cold = [];
    };
    { file = "lib/core/system.ml";
      (* every phase and CPU-state transition, with the two switches it
         makes below ([Phase.cpu_state] returns static constants);
         Algorithm 1's order; a page fetch's slot, post and CQE; a
         request's unithread slot at admission, and its reply's TX
         completion; the Steal wake-ups. The pools double when they run
         dry, and a buffer's slot is made at its first use; a full QP's
         backoff and the fetch timer allocate their closures, and run
         only when a QP is full or a completion can be lost (a faulty
         fabric or a crashing cluster) *)
      functions =
        [
          "enter";
          "dispatch_order";
          "idle_order";
          "acquire_fetch";
          "release_fetch";
          "post_fetch";
          "fetch_cqe";
          "slot";
          "reply_sent";
          "tx_cqe";
          "wake_idle_siblings";
        ];
      cold =
        [
          "grow_fetches";
          "fetch_backoff";
          "arm_fetch_timer";
          "grow_slots";
          "make_slot";
        ];
    };
    { file = "lib/obs/accountant.ml"; functions = [ "switch" ]; cold = [] };
    { file = "lib/prof/profiler.ml"; functions = [ "switch" ]; cold = [] };
    { file = "lib/stats/histogram.ml";
      (* every completed request records its latency here; [ensure]
         grows the bucket array on a new magnitude, amortised away *)
      functions = [ "record"; "record_n" ];
      cold = [ "ensure" ];
    };
  ]

let entry_for file =
  List.find_opt (fun e -> String.equal e.file file) manifest
