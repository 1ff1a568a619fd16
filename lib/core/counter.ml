type t =
  | Admitted
  | Drops_queue
  | Drops_buffer
  | Handled
  | Errored
  | Faults
  | Coalesced
  | Qp_stalls
  | Preemptions
  | Writeback_stalls
  | Frame_stalls
  | Fetch_timeouts
  | Fetch_retries
  | Retries_hwm
  (* Nothing bumps [Drops_qp]: a prefetch is posted only with QP slots to
     spare, so its post is never refused. It stays for its column in
     every golden CSV and its family in the metrics golden. *)
  | Drops_qp
  | Steals

let all =
  [
    Admitted; Drops_queue; Drops_buffer; Handled; Errored; Faults; Coalesced;
    Qp_stalls; Preemptions; Writeback_stalls; Frame_stalls; Fetch_timeouts;
    Fetch_retries; Retries_hwm; Drops_qp; Steals;
  ]

let count = List.length all

let index = function
  | Admitted -> 0
  | Drops_queue -> 1
  | Drops_buffer -> 2
  | Handled -> 3
  | Errored -> 4
  | Faults -> 5
  | Coalesced -> 6
  | Qp_stalls -> 7
  | Preemptions -> 8
  | Writeback_stalls -> 9
  | Frame_stalls -> 10
  | Fetch_timeouts -> 11
  | Fetch_retries -> 12
  | Retries_hwm -> 13
  | Drops_qp -> 14
  | Steals -> 15

type desc = { name : string; help : string; gauge : bool }

let counter name help = { name; help; gauge = false }

let describe = function
  | Admitted -> counter "admitted" "Requests admitted into the central queue"
  | Drops_queue -> counter "drops_queue" "Requests dropped: central queue full"
  | Drops_buffer ->
    counter "drops_buffer" "Requests dropped: buffer pool exhausted"
  | Handled -> counter "handled" "Request handlers run to completion"
  | Errored -> counter "errored" "Handlers aborted by fetch-retry exhaustion"
  | Faults -> counter "faults" "Page faults taken (fetches issued)"
  | Coalesced -> counter "coalesced" "Faults absorbed by an in-flight fetch"
  | Qp_stalls -> counter "qp_stalls" "Fault-handler pauses on a full QP"
  | Preemptions -> counter "preemptions" "DiLOS-P quantum expirations"
  | Writeback_stalls ->
    counter "writeback_stalls" "Reclaimer pauses on a full QP"
  | Frame_stalls ->
    counter "frame_stalls"
      "Faults that waited for the reclaimer to free a frame"
  | Fetch_timeouts ->
    counter "fetch_timeouts" "Page fetches declared lost after the timeout"
  | Fetch_retries -> counter "fetch_retries" "Fetches reposted after a timeout"
  | Retries_hwm ->
    { name = "retries_hwm";
      help = "Most reposts any single fetch needed";
      gauge = true }
  | Drops_qp -> counter "drops_qp" "Prefetch posts refused by a full QP"
  | Steals ->
    counter "steals" "Requests taken from a sibling worker's local or ready queue"
