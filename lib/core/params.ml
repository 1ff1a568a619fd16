let c = Adios_engine.Clock.of_us

let workers = 8
let dispatch_cycles = 500
let recycle_cycles = 30
let steal_cycles = 180
let poll_cycles = 40
let unithread_create_cycles = 60
let ctx_switch_cycles = Adios_unithread.Context.(switch_cycles Unithread)
let reply_post_cycles = 80
let fault_sw_cycles = 800
let map_page_cycles = 300
let hit_touch_cycles = 0

let hermit_fault_extra_cycles = c 1.2
let hermit_request_extra_cycles = c 1.2
let hermit_jitter_probability = 0.004
let hermit_jitter_min_cycles = c 50.
let hermit_jitter_max_cycles = c 400.

let preempt_interval_cycles = c 5.
let preempt_probe_cycles = 6
let preempt_fire_cycles = 450

let rdma_base_latency_cycles = c 3.9
let wqe_overhead_cycles = 210
let qp_depth = 128
let qp_retry_cycles = 200
let link_gbps = 100.
let wire_overhead = 0.27

let rereplicate_gap_cycles = c 1.0

let eth_latency_cycles = c 0.8
let tx_cqe_latency_cycles = c 2.8

let central_queue_capacity = 4096
let buffer_count = 131_072

let pp_table ppf () =
  let us v = Adios_engine.Clock.to_us v in
  Format.fprintf ppf
    "@[<v>testbed model constants (cycles @ 2.0 GHz):@,\
     workers=%d dispatch=%d recycle=%d poll=%d ut_create=%d@,\
     ctx_switch=%d ucontext_switch=%d reply_post=%d@,\
     fault_sw=%d map_page=%d hit_touch=%d@,\
     hermit: fault_extra=%.2fus req_extra=%.2fus jitter_p=%.4f jitter=%.0f-%.0fus@,\
     preempt: interval=%.1fus probe=%d fire=%d@,\
     rdma: base_latency=%.2fus wqe=%d qp_depth=%d link=%.0fGbps wire_ovh=%.2f@,\
     cluster: rereplicate_gap=%.1fus@,\
     eth: latency=%.2fus tx_cqe=%.2fus@,\
     admission: queue=%d buffers=%d@]"
    workers dispatch_cycles recycle_cycles poll_cycles
    unithread_create_cycles ctx_switch_cycles
    Adios_unithread.Context.(switch_cycles Ucontext)
    reply_post_cycles fault_sw_cycles map_page_cycles hit_touch_cycles
    (us hermit_fault_extra_cycles)
    (us hermit_request_extra_cycles)
    hermit_jitter_probability
    (us hermit_jitter_min_cycles)
    (us hermit_jitter_max_cycles)
    (us preempt_interval_cycles)
    preempt_probe_cycles preempt_fire_cycles
    (us rdma_base_latency_cycles)
    wqe_overhead_cycles qp_depth link_gbps wire_overhead
    (us rereplicate_gap_cycles)
    (us eth_latency_cycles)
    (us tx_cqe_latency_cycles)
    central_queue_capacity buffer_count
