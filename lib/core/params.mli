(** Calibration constants of the simulated testbed (DESIGN.md section 5).

    All cycle figures are for the paper's 2.0 GHz compute node. The
    anchors taken directly from the paper: local request service
    1.7 Kcycles, remote service about 10.6 Kcycles at P50 under load,
    2-3 us for an unloaded 4 KB RDMA fetch, 40/191-cycle context
    switches, 5 us preemption quantum, 8 workers + 1 dispatcher +
    1 reclaimer. *)

(* CPU-side costs *)

val workers : int
(** Worker threads (8 in every experiment). *)

val dispatch_cycles : int
(** Dispatcher work per request: RX descriptor handling, buffer pick,
    Algorithm 1 scan, doorbell to the worker. *)

val recycle_cycles : int
(** Dispatcher work to recycle one reply buffer (polling delegation). *)

val steal_cycles : int
(** Work-stealing: scanning sibling queues plus the synchronized pop. *)

val poll_cycles : int
(** One CQ poll by a worker. *)

val unithread_create_cycles : int
(** Building a unithread in its pre-allocated buffer. *)

val ctx_switch_cycles : int
(** One unithread context switch (Table 1): [Context.switch_cycles
    Unithread]. *)

val reply_post_cycles : int
(** Posting the reply send WR. *)

val fault_sw_cycles : int
(** Unikernel page-fault software path: exception entry, unified
    page-table lookup, WR construction (DiLOS and Adios). *)

val map_page_cycles : int
(** Mapping the fetched frame and returning to the faulting code. *)

val hit_touch_cycles : int
(** Extra cost of a resident-page access above the app's own compute
    (TLB/page-table assist in the model; tiny). *)

(* Hermit (kernel-based) extras *)

val hermit_fault_extra_cycles : int
(** Linux fault path above the unikernel one: trap, vma walk, locks,
    cgroup accounting left after Hermit's asynchrony. *)

val hermit_request_extra_cycles : int
(** Kernel network stack cost per request (socket RX/TX). *)

val hermit_jitter_probability : float
(** Chance a request hits kernel interference (softirq, timer, RCU). *)

val hermit_jitter_min_cycles : int
val hermit_jitter_max_cycles : int

(* Preemption (DiLOS-P) *)

val preempt_interval_cycles : int
(** 5 us quantum of Shinjuku/Concord. *)

val preempt_probe_cycles : int
(** Cost of one inserted preemption check (Concord-style). *)

val preempt_fire_cycles : int
(** Cost of taking the preemption: save context, re-enqueue. *)

(* RDMA fabric *)

val rdma_base_latency_cycles : int
(** Serialization-end to completion: fabric propagation + remote-node
    DMA + CQE generation. *)

val wqe_overhead_cycles : int
(** NIC engine per-WR processing. *)

val qp_depth : int
(** Outstanding WR limit per QP. *)

val qp_retry_cycles : int
(** Back-off before re-attempting a post on a full QP (fault and
    write-back paths). *)

val link_gbps : float
(** 100 GbE links everywhere. *)

val wire_overhead : float
(** Extra wire bytes per payload byte (RoCE/Ethernet headers, PCIe). *)

(* Cluster repair *)

val rereplicate_gap_cycles : int
(** Pacing gap between background re-replication steps after a memory
    node dies: one page copy is launched per gap, so repair traffic
    trickles onto the links instead of flooding demand fetches. *)

(* Ethernet path to the load generator *)

val eth_latency_cycles : int
(** One-way propagation + switch for client packets. *)

val tx_cqe_latency_cycles : int
(** Reply TX completion (CQE) delay after serialization (TX DMA +
    completion-moderated CQE writeback). Only a [Tx_sync_spin] worker
    eats this on its critical path; delegated and deferred modes reap it
    asynchronously. *)

(* Admission *)

val central_queue_capacity : int
(** Bounded single queue; beyond this the dispatcher drops. *)

val buffer_count : int
(** Pre-allocated unithread buffers (131,072). *)

val pp_table : Format.formatter -> unit -> unit
(** Dump every constant (the bench harness prints this preamble). *)
