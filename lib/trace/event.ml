type kind =
  | Req_enqueue
  | Req_drop_queue
  | Req_drop_buffer
  | Dispatch
  | Run_begin
  | Run_end
  | Fault_begin
  | Fault_end
  | Coalesce
  | Rdma_issue
  | Rdma_complete
  | Wqe_post
  | Cqe
  | Tx_submit
  | Tx_complete
  | Evict
  | Reclaim_begin
  | Reclaim_end
  | Preempt
  | Stall_qp
  | Stall_frame
  | Stall_buffer
  | Fault_injected
  | Fetch_timeout
  | Fetch_retry
  | Req_error
  | Node_failed
  | Failover
  | Rereplicated

type t = { ts : int; kind : kind; req : int; worker : int; page : int }

let none = -1
let reclaimer_actor = -2

let kind_name = function
  | Req_enqueue -> "req_enqueue"
  | Req_drop_queue -> "req_drop_queue"
  | Req_drop_buffer -> "req_drop_buffer"
  | Dispatch -> "dispatch"
  | Run_begin -> "run_begin"
  | Run_end -> "run_end"
  | Fault_begin -> "fault_begin"
  | Fault_end -> "fault_end"
  | Coalesce -> "coalesce"
  | Rdma_issue -> "rdma_issue"
  | Rdma_complete -> "rdma_complete"
  | Wqe_post -> "wqe_post"
  | Cqe -> "cqe"
  | Tx_submit -> "tx_submit"
  | Tx_complete -> "tx_complete"
  | Evict -> "evict"
  | Reclaim_begin -> "reclaim_begin"
  | Reclaim_end -> "reclaim_end"
  | Preempt -> "preempt"
  | Stall_qp -> "stall_qp"
  | Stall_frame -> "stall_frame"
  | Stall_buffer -> "stall_buffer"
  | Fault_injected -> "fault_injected"
  | Fetch_timeout -> "fetch_timeout"
  | Fetch_retry -> "fetch_retry"
  | Req_error -> "req_error"
  | Node_failed -> "node_failed"
  | Failover -> "failover"
  | Rereplicated -> "rereplicated"
