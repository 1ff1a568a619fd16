type report = {
  events : int;
  enqueued : int;
  dropped : int;
  completed : int;
  tx_reaped : int;
  faults : int;
  coalesced : int;
  rdma_issued : int;
  rdma_completed : int;
  wqe_posted : int;
  cqe_delivered : int;
  evictions : int;
  preemptions : int;
  stalls : int;
  injected : int;
  timeouts : int;
  retries : int;
  errored : int;
  nodes_failed : int;
  failovers : int;
  rereplicated : int;
  open_rdma : int;
  open_tx : int;
  open_losses : int;
  spans_dropped : int;
  errors : string list;
  warnings : string list;
}

let max_errors = 50

type fault_interval = { start_ts : int; mutable satisfied : bool }

let check ?(strict = true) ?(spans_dropped = 0) events =
  let errors = ref [] and n_errors = ref 0 in
  let error fmt =
    Printf.ksprintf
      (fun msg ->
        incr n_errors;
        if !n_errors <= max_errors then errors := msg :: !errors)
      fmt
  in
  let enqueued = ref 0
  and dropped = ref 0
  and completed = ref 0
  and tx_reaped = ref 0
  and faults = ref 0
  and coalesced = ref 0
  and rdma_issued = ref 0
  and rdma_completed = ref 0
  and wqe_posted = ref 0
  and cqe_delivered = ref 0
  and evictions = ref 0
  and preemptions = ref 0
  and stalls = ref 0
  and injected = ref 0
  and timeouts = ref 0
  and retries = ref 0
  and errored = ref 0
  and nodes_failed = ref 0
  and failovers = ref 0
  and rereplicated = ref 0
  and count = ref 0 in
  (* per-worker Run_begin/Run_end alternation *)
  let run_open : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let worker_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* per-(req,page) open fault intervals, plus a page index so an
     Rdma_complete can mark every fault it satisfies *)
  let fault_open : (int * int, fault_interval list) Hashtbl.t =
    Hashtbl.create 256
  in
  let faults_on_page : (int, fault_interval list) Hashtbl.t =
    Hashtbl.create 256
  in
  (* outstanding page-level RDMA ops and NIC-level WQEs *)
  let rdma_open : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let wqe_open : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let tx_open : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let req_seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* fault-recovery bookkeeping, per work request.

     The caller of a successful [Nic.post] emits its page-level
     [Rdma_issue] right after the NIC's [Wqe_post], at the same
     timestamp with nothing in between, so adjacent pairing recovers
     which WR id carries each page ([pending_wqe] holds the WR between
     the two events). At most one fetch attempt per page is ever
     outstanding — retries only start after the previous attempt's
     timeout, and concurrent faults coalesce — so [current_wr] is a
     single slot per page.

     A [Fetch_timeout] fences off the page's current attempt. If the
     injector had already announced that attempt's loss
     ([Fault_injected]), the loss is now recovered; if the announcement
     comes later (the WQE's nominal delivery time can fall after the
     timeout under QP congestion), the [abandoned] mark absorbs it.
     Either way, a loss still pending in [lost] when its page's
     attempt completes means the bookkeeping is corrupt: nothing can
     complete a lost fetch. *)
  let pending_wqe = ref None in
  let current_wr : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let abandoned : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let lost : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let timeout_open : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* memory nodes announced dead so far; failover and re-replication
     only make sense after some node failed *)
  let node_down : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let last_ts = ref min_int in
  List.iter
    (fun (e : Event.t) ->
      incr count;
      if e.ts < !last_ts then
        error "t=%d: timestamp regression (%s after t=%d)" e.ts
          (Event.kind_name e.kind) !last_ts;
      last_ts := e.ts;
      match e.kind with
      | Event.Req_enqueue ->
        incr enqueued;
        if Hashtbl.mem req_seen e.req then
          error "t=%d: duplicate Req_enqueue for r%d" e.ts e.req;
        Hashtbl.replace req_seen e.req ()
      | Event.Req_drop_queue | Event.Req_drop_buffer -> incr dropped
      | Event.Dispatch -> ()
      | Event.Run_begin ->
        Hashtbl.replace worker_seen e.worker ();
        (match Hashtbl.find_opt run_open e.worker with
        | Some r ->
          error "t=%d: worker %d begins r%d while r%d is still running" e.ts
            e.worker e.req r
        | None -> ());
        Hashtbl.replace run_open e.worker e.req
      | Event.Run_end -> (
        match Hashtbl.find_opt run_open e.worker with
        | Some r ->
          if r <> e.req then
            error "t=%d: worker %d ends r%d but r%d was running" e.ts e.worker
              e.req r;
          Hashtbl.remove run_open e.worker
        | None ->
          if strict || Hashtbl.mem worker_seen e.worker then
            error "t=%d: worker %d ends r%d with no open run span" e.ts
              e.worker e.req)
      | Event.Fault_begin ->
        incr faults;
        let iv = { start_ts = e.ts; satisfied = false } in
        let key = (e.req, e.page) in
        let stack =
          match Hashtbl.find_opt fault_open key with Some s -> s | None -> []
        in
        Hashtbl.replace fault_open key (iv :: stack);
        let on_page =
          match Hashtbl.find_opt faults_on_page e.page with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace faults_on_page e.page (iv :: on_page)
      | Event.Fault_end -> (
        let key = (e.req, e.page) in
        match Hashtbl.find_opt fault_open key with
        | Some (iv :: rest) ->
          if rest = [] then Hashtbl.remove fault_open key
          else Hashtbl.replace fault_open key rest;
          (match Hashtbl.find_opt faults_on_page e.page with
          | Some l ->
            Hashtbl.replace faults_on_page e.page
              (List.filter (fun x -> x != iv) l)
          | None -> ());
          if not iv.satisfied then
            error
              "t=%d: fault on r%d/p%d (begun t=%d) ended without an RDMA \
               completion or coalesce"
              e.ts e.req e.page iv.start_ts
        | Some [] | None ->
          if strict then
            error "t=%d: Fault_end for r%d/p%d without Fault_begin" e.ts e.req
              e.page)
      | Event.Coalesce -> (
        incr coalesced;
        match Hashtbl.find_opt fault_open (e.req, e.page) with
        | Some (iv :: _) -> iv.satisfied <- true
        | Some [] | None -> ())
      | Event.Rdma_issue ->
        incr rdma_issued;
        (match !pending_wqe with
        | Some (wr, ts) when ts = e.ts ->
          Hashtbl.replace current_wr e.page wr;
          pending_wqe := None
        | Some _ | None -> ());
        let n =
          match Hashtbl.find_opt rdma_open e.page with Some n -> n | None -> 0
        in
        Hashtbl.replace rdma_open e.page (n + 1)
      | Event.Rdma_complete -> (
        incr rdma_completed;
        (match Hashtbl.find_opt current_wr e.page with
        | Some wr ->
          if Hashtbl.mem lost wr then
            error
              "t=%d: Rdma_complete for p%d whose fetch (WR %d) was lost and \
               never timed out"
              e.ts e.page wr;
          Hashtbl.remove current_wr e.page
        | None -> ());
        (match Hashtbl.find_opt faults_on_page e.page with
        | Some l -> List.iter (fun iv -> iv.satisfied <- true) l
        | None -> ());
        match Hashtbl.find_opt rdma_open e.page with
        | Some n when n > 0 ->
          if n = 1 then Hashtbl.remove rdma_open e.page
          else Hashtbl.replace rdma_open e.page (n - 1)
        | Some _ | None ->
          if strict then
            error "t=%d: Rdma_complete for p%d without Rdma_issue" e.ts e.page)
      | Event.Wqe_post ->
        incr wqe_posted;
        if Hashtbl.mem wqe_open e.page then
          error "t=%d: duplicate WQE id %d" e.ts e.page;
        Hashtbl.replace wqe_open e.page ();
        pending_wqe := Some (e.page, e.ts)
      | Event.Cqe ->
        incr cqe_delivered;
        if Hashtbl.mem wqe_open e.page then Hashtbl.remove wqe_open e.page
        else if strict then
          error "t=%d: CQE for WQE id %d that was never posted" e.ts e.page
      | Event.Tx_submit ->
        incr completed;
        if strict && not (Hashtbl.mem req_seen e.req) then
          error "t=%d: reply for r%d which was never enqueued" e.ts e.req;
        if Hashtbl.mem tx_open e.req then
          error "t=%d: duplicate Tx_submit for r%d" e.ts e.req;
        Hashtbl.replace tx_open e.req ()
      | Event.Tx_complete ->
        incr tx_reaped;
        if Hashtbl.mem tx_open e.req then Hashtbl.remove tx_open e.req
        else if strict then
          error "t=%d: Tx_complete for r%d without Tx_submit" e.ts e.req
      | Event.Evict -> incr evictions
      | Event.Reclaim_begin | Event.Reclaim_end -> ()
      | Event.Preempt -> incr preemptions
      | Event.Stall_qp | Event.Stall_frame | Event.Stall_buffer -> incr stalls
      | Event.Fault_injected ->
        incr injected;
        (* the WQE terminates here instead of in a CQE *)
        if Hashtbl.mem wqe_open e.page then Hashtbl.remove wqe_open e.page
        else if strict then
          error "t=%d: Fault_injected for WQE id %d that was never posted" e.ts
            e.page;
        if Hashtbl.mem abandoned e.page then
          (* its timeout already fired: under QP congestion the loss is
             announced at the WQE's nominal delivery time, which can
             fall after the initiator gave up on it *)
          Hashtbl.remove abandoned e.page
        else Hashtbl.replace lost e.page ()
      | Event.Fetch_timeout ->
        incr timeouts;
        (* the current attempt is fenced off: a loss already announced
           is recovered; one announced later hits the abandoned mark *)
        (match Hashtbl.find_opt current_wr e.page with
        | Some wr ->
          Hashtbl.remove current_wr e.page;
          if Hashtbl.mem lost wr then Hashtbl.remove lost wr
          else Hashtbl.replace abandoned wr ()
        | None -> ());
        (* the abandoned attempt's issue span closes now; nothing else
           will complete it *)
        (match Hashtbl.find_opt rdma_open e.page with
        | Some n when n > 0 ->
          if n = 1 then Hashtbl.remove rdma_open e.page
          else Hashtbl.replace rdma_open e.page (n - 1)
        | Some _ | None ->
          if strict then
            error "t=%d: Fetch_timeout for p%d with no outstanding fetch" e.ts
              e.page);
        (* a demand-fetch timeout must lead to a retry or an error
           surfaced on the request; prefetch timeouts (req = none) are
           aborts nobody observes *)
        if e.req >= 0 then begin
          let key = (e.req, e.page) in
          let n =
            match Hashtbl.find_opt timeout_open key with
            | Some n -> n
            | None -> 0
          in
          Hashtbl.replace timeout_open key (n + 1)
        end
      | Event.Fetch_retry -> (
        incr retries;
        let key = (e.req, e.page) in
        match Hashtbl.find_opt timeout_open key with
        | Some n when n > 0 ->
          if n = 1 then Hashtbl.remove timeout_open key
          else Hashtbl.replace timeout_open key (n - 1)
        | Some _ | None ->
          if strict then
            error "t=%d: Fetch_retry for r%d/p%d without a Fetch_timeout" e.ts
              e.req e.page)
      | Event.Req_error ->
        incr errored;
        let key = (e.req, e.page) in
        (match Hashtbl.find_opt timeout_open key with
        | Some n when n > 0 -> Hashtbl.remove timeout_open key
        | Some _ | None ->
          if strict then
            error "t=%d: Req_error for r%d/p%d without a Fetch_timeout" e.ts
              e.req e.page);
        (* the open fault interval resolves by surfacing the failure *)
        (match Hashtbl.find_opt fault_open key with
        | Some l -> List.iter (fun iv -> iv.satisfied <- true) l
        | None -> ())
      | Event.Node_failed ->
        incr nodes_failed;
        if Hashtbl.mem node_down e.page then
          error "t=%d: node %d failed twice" e.ts e.page;
        Hashtbl.replace node_down e.page ()
      | Event.Failover ->
        incr failovers;
        if strict && Hashtbl.length node_down = 0 then
          error "t=%d: failover for r%d/p%d with no failed node" e.ts e.req
            e.page
      | Event.Rereplicated ->
        incr rereplicated;
        if strict && Hashtbl.length node_down = 0 then
          error "t=%d: re-replication of p%d with no failed node" e.ts e.page)
    events;
  if strict then begin
    (* a worker under Tx_sync_spin stays in its run until its reply's
       TX CQE arrives, and a run stops at the last client RX: a run left
       open after its Tx_submit, with no Tx_complete, is that wait *)
    Hashtbl.iter
      (fun w r ->
        if not (Hashtbl.mem tx_open r) then
          error "end of trace: worker %d still running r%d" w r)
      run_open;
    Hashtbl.iter
      (fun (r, p) stack ->
        List.iter
          (fun iv ->
            error "end of trace: fault on r%d/p%d (begun t=%d) never ended" r p
              iv.start_ts)
          stack)
      fault_open;
    Hashtbl.iter
      (fun (r, p) n ->
        error
          "end of trace: %d timed-out fetch(es) on r%d/p%d never retried or \
           surfaced"
          n r p)
      timeout_open;
    (* conservation, from the trace alone: every admitted request must
       have produced exactly one reply *)
    if !enqueued <> !completed then
      error "conservation violated: %d requests enqueued but %d replied"
        !enqueued !completed;
    if !rdma_issued <> !wqe_posted then
      error "RDMA issue/WQE mismatch: %d page-level issues, %d WQEs"
        !rdma_issued !wqe_posted
  end;
  if !n_errors > max_errors then
    errors := Printf.sprintf "... and %d more errors" (!n_errors - max_errors)
              :: !errors;
  {
    events = !count;
    enqueued = !enqueued;
    dropped = !dropped;
    completed = !completed;
    tx_reaped = !tx_reaped;
    faults = !faults;
    coalesced = !coalesced;
    rdma_issued = !rdma_issued;
    rdma_completed = !rdma_completed;
    wqe_posted = !wqe_posted;
    cqe_delivered = !cqe_delivered;
    evictions = !evictions;
    preemptions = !preemptions;
    stalls = !stalls;
    injected = !injected;
    timeouts = !timeouts;
    retries = !retries;
    errored = !errored;
    nodes_failed = !nodes_failed;
    failovers = !failovers;
    rereplicated = !rereplicated;
    open_rdma = Hashtbl.fold (fun _ n acc -> acc + n) rdma_open 0;
    open_tx = Hashtbl.length tx_open;
    open_losses = Hashtbl.length lost;
    spans_dropped;
    errors = List.rev !errors;
    warnings =
      (* overflow never corrupts the ring (oldest spans are overwritten
         whole) but it does make any trace-derived attribution partial;
         surfacing it here keeps "silently vanished spans" impossible *)
      (if spans_dropped > 0 then
         [
           Printf.sprintf
             "%d span(s) dropped by the bounded ring sink: the trace is \
              truncated and segment/attribution queries over it are \
              incomplete (raise the sink capacity to recover them)"
             spans_dropped;
         ]
       else []);
  }

let ok r = r.errors = []

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d events: %d enqueued, %d dropped, %d replied (%d reaped)@,\
     %d faults (%d coalesced), rdma %d/%d (%d open), wqe %d/%d@,\
     %d evictions, %d preemptions, %d stalls, %d open tx"
    r.events r.enqueued r.dropped r.completed r.tx_reaped r.faults r.coalesced
    r.rdma_issued r.rdma_completed r.open_rdma r.wqe_posted r.cqe_delivered
    r.evictions r.preemptions r.stalls r.open_tx;
  if r.injected + r.timeouts + r.retries + r.errored + r.open_losses > 0 then
    Format.fprintf ppf
      "@,%d losses injected (%d pending), %d timeouts, %d retries, %d errored"
      r.injected r.open_losses r.timeouts r.retries r.errored;
  if r.nodes_failed + r.failovers + r.rereplicated > 0 then
    Format.fprintf ppf
      "@,%d node(s) failed, %d failovers, %d pages re-replicated"
      r.nodes_failed r.failovers r.rereplicated;
  List.iter (fun w -> Format.fprintf ppf "@,warning: %s" w) r.warnings;
  Format.fprintf ppf "@,%s@]"
    (match r.errors with
    | [] -> "invariants: OK"
    | l -> Printf.sprintf "invariants: %d VIOLATIONS" (List.length l))
