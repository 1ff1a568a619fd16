module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc
module Rng = Adios_engine.Rng
module Verbs = Adios_rdma.Verbs
module Nic = Adios_rdma.Nic
module Link = Adios_rdma.Link
module Raw_eth = Adios_rdma.Raw_eth
module Memnode = Adios_rdma.Memnode
module Pager = Adios_mem.Pager
module Reclaimer = Adios_mem.Reclaimer
module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Task = Adios_unithread.Task
module Buffer_pool = Adios_unithread.Buffer_pool
module Prefetcher = Adios_mem.Prefetcher
module Trace_sink = Adios_trace.Sink
module Trace_event = Adios_trace.Event
module Injector = Adios_fault.Injector
module Acct = Adios_obs.Accountant
module Registry = Adios_obs.Registry
module Cluster = Adios_cluster.Cluster
module Profiler = Adios_prof.Profiler
module Phase = Adios_prof.Phase

(* Raised inside a unithread when a page fetch exhausted its retries;
   caught at the task boundary so the request completes with an error
   reply instead of wedging its worker. *)
exception Fetch_failed of int

(* A unithread slot: one per buffer id, made on the buffer's first use
   and reset whenever the buffer admits a request (Fig. 4: a request's
   context lives in its pre-allocated buffer). Everything a request's
   life needs to call back into is made with the slot — its task, whose
   body serves [req], the task's [App.ctx], and the reply's TX
   completion — so admitting, running and replying allocate none of it
   again. *)
type entry = {
  mutable req : Request.t;
  mutable task : Task.t;  (** serves [req]; rearmed at admission *)
  detector : Prefetcher.Stride_detector.t;
  mutable started : bool;
      (** [task] has run: a dispatch switches back in instead of
          starting it *)
  mutable worker : int;
      (** id of the worker whose QPs serve its faults; -1 before its
          first dispatch *)
  mutable quantum_start : int;
  mutable preempted : bool;
  tx_cqe : unit -> unit;
      (** the reply's TX completion event. The request holds its buffer
          until this has run, so the slot still holds the request. *)
  mutable tx_resume : unit -> unit;
      (** a worker spinning on that completion (synchronous TX) *)
  tx_park : (unit -> unit) -> unit;  (** stores [tx_resume] *)
}

and worker = {
  wid : int;
  qps : int Nic.qp array;
      (** one QP per memory node; each WR carries a fetch token *)
  fetch_cq : int Verbs.Cq.t;
  gate : Proc.Gate.t;
  ready : entry Queue.t;
  local : entry Queue.t; (* per-worker queue (partitioned / stealing) *)
  mutable assigned : entry;  (** [nobody] when none *)
  mutable idle : bool;
}

type outcome = Pending | Fetched | Failed

(* Every page READ that is posted or waiting to post holds one slot of
   this pool: the simulator's counterpart of the paper's pre-allocated
   per-request memory. Slot [s]'s fields sit at index [s] of the
   parallel arrays, which double when the pool runs out of free slots
   (so never bind one across a blocking wait). *)
type fetches = {
  mutable page : int array;
  mutable home : int array;  (** the worker whose QPs carry every attempt *)
  mutable owner : entry array;
      (** the parked faulting entry; [nobody] for a prefetch *)
  mutable budget : int array;  (** reposts allowed after a timeout *)
  mutable live : int array;
      (** token of the attempt whose CQE or timer acts; -1: none *)
  mutable attempt : int array;
  mutable outcome : outcome array;
  mutable wake : (unit -> unit) array;  (** a busy-waiting owner's resume *)
  mutable park : ((unit -> unit) -> unit) array;
      (** slot [s]'s suspend hook, storing the resume in [wake.(s)] *)
  mutable free : int array;  (** stack of free slots, [nfree] deep *)
  mutable nfree : int;
  mutable serial : int;  (** attempts posted so far: the token's high bits *)
}

(* The slots by buffer id; [nobody] marks an id not used yet. It grows
   with the buffer pool's high-water mark, since the pool hands out the
   lowest unused id first. *)
type slots = { mutable by_buffer : entry array }

type t = {
  sim : Sim.t;
  cfg : Config.t;
  app : App.t;
  arena : Arena.t;
  pager : Pager.t;
  cluster : Cluster.t;
  nic : int Nic.t;  (** node 0's NIC *)
  reclaim_qps : int Nic.qp array;
      (** one per memory node; each WR carries its page *)
  reclaim_cq : int Verbs.Cq.t;
  reply_channel : Request.t Raw_eth.t;
  workers : worker array;
  pending : entry Queue.t;
  dispatch_gate : Proc.Gate.t;
  recycle : int Queue.t;
  buffers : Buffer_pool.t;
  slots : slots;
  prefetched : Bytes.t; (* per-page flag: resident due to a prefetch *)
  prefetch_stats : Prefetcher.stats;
  mutable rr_cursor : int;
  load : int array;  (** [dispatch_order]'s input, one slot per worker *)
  order : int array;  (** and its output *)
  fetches : fetches;
  nobody : entry;
      (** the owner of a prefetch and the empty slot and assignment: no
          request waits on it, and its detector stands in for every
          slot's when prefetching is off *)
  rng : Rng.t;
  mutable reclaimer : Reclaimer.t option;
  counts : int array;  (** one slot per {!Counter.t}, by [Counter.index] *)
  fault : Injector.t option;
  recover : bool;
      (** fetch timers armed: a completion can be lost, on a faulty
          fabric or to a node crash *)
  trace : Trace_sink.t;
  trace_on : bool;  (** cached [Trace_sink.enabled trace]: one load+branch
                        per instrumentation site when tracing is off *)
  acct : Acct.t;  (** CPU slots: workers 0..n-1, dispatcher last *)
  prof : Profiler.t option;  (** per-request phase attribution, when on *)
  prof_on : bool;  (** cached [Option.is_some prof], like [trace_on] *)
}

let bump t c =
  let i = Counter.index c in
  t.counts.(i) <- t.counts.(i) + 1

let counter t c = t.counts.(Counter.index c)

(* Read after every simulator event by the runner's termination check,
   so the two slots are resolved once here rather than per call. *)
let drops_queue = Counter.index Counter.Drops_queue
let drops_buffer = Counter.index Counter.Drops_buffer
let drops t = t.counts.(drops_queue) + t.counts.(drops_buffer)

let faults_injected t =
  match t.fault with None -> 0 | Some inj -> Injector.injected inj

(* Single tracing entry point: one branch and no allocation when the
   sink is off — the cached [trace_on] flag skips even the [Sim.now]
   read and the cross-module [emit] call. [ev] is [emit] with the
   fields optional; the zero-alloc manifest functions call [emit],
   since the typed lint counts the [Some] an optional argument is
   wrapped in as an allocation. *)
let emit t kind ~req ~worker ~page =
  if t.trace_on then
    Trace_sink.emit t.trace ~ts:(Sim.now t.sim) ~kind ~req ~worker ~page

let ev ?(req = -1) ?(worker = -1) ?(page = -1) t kind =
  emit t kind ~req ~worker ~page

let accountant t = t.acct

(* Time attribution. Like [ev] these probes never schedule events or
   touch the RNG: they read [Sim.now] and mutate arrays, so neither the
   accountant nor the profiler can perturb the run. Each blocking site
   below enters its phase *before* it waits; sites with no intervening
   wait need no probe (zero cycles would accrue).

   [enter] moves a request to [phase] and, when the phase runs on a CPU
   ([Phase.cpu_state]), its worker to the matching accountant state, so
   the two accounts cannot disagree about who was doing what.
   [acct_cpu] is left for the switches no request is part of: idle and
   dispatch work. *)
let acct_cpu t ~cpu st = if cpu >= 0 then Acct.switch t.acct ~cpu st

let enter t e phase =
  (match Phase.cpu_state phase with
  | Some st -> acct_cpu t ~cpu:e.worker st
  | None -> ());
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.switch r ~now:(Sim.now t.sim) phase
    | None -> ()

let reclaimer t =
  match t.reclaimer with Some r -> r | None -> assert false

let buffers t = t.buffers
let cluster t = t.cluster

(* Congestion signal of a worker: fetches outstanding across all its
   QPs (one per memory node; a single sum, exactly the old per-QP count
   under the default single-node topology). *)
let qp_load w =
  let load = ref 0 in
  for node = 0 to Array.length w.qps - 1 do
    load := !load + Nic.outstanding w.qps.(node)
  done;
  !load

let node_memnode t node = (Cluster.nodes t.cluster).(node).Cluster.memnode
let prefetch_stats t = t.prefetch_stats

let is_busywait cfg =
  match cfg.Config.system with
  | Config.Dilos | Config.Dilos_p | Config.Hermit -> true
  | Config.Adios | Config.Steal -> false

(* --- page-fault handling ------------------------------------------------ *)

(* Ensure a frame is available, stalling on memory pressure. *)
let wait_frame t e page =
  (match t.reclaimer with Some r -> Reclaimer.trigger r | None -> ());
  if Pager.free_frames t.pager <= 0 then begin
    bump t Counter.Frame_stalls;
    ev t Trace_event.Stall_frame ~req:e.req.Request.id ~worker:e.worker ~page;
    enter t e Phase.Pf_software;
    Proc.suspend (fun resume -> Pager.wait_frame t.pager resume)
  end

let charge_pf t e cycles =
  enter t e Phase.Pf_software;
  Proc.wait cycles

(* Busy-wait until [page]'s in-flight fetch completes. *)
let spin_on_inflight t e page =
  enter t e Phase.Busy_wait;
  Proc.suspend (fun resume -> Pager.add_waiter t.pager page resume);
  enter t e Phase.Pf_software

(* Wake every idle worker but [w]: they may steal what [w] just got. *)
let wake_idle_siblings t (w : worker) =
  for i = 0 to Array.length t.workers - 1 do
    let s = t.workers.(i) in
    if s.idle && s.wid <> w.wid then Proc.Gate.signal s.gate
  done

(* Make a blocked-then-resumed entry runnable again: push it on its
   worker's ready queue and wake that worker. Under the Steal system
   the ready queues are steal targets, so idle siblings are woken too —
   one of them may grab the entry before the (busy) owner gets to it. *)
let enqueue_ready t (w : worker) e =
  (* fetch wire time ends here; from the CQE until a worker (owner or
     thief) polls the entry back in, the request waits in a ready queue *)
  enter t e Phase.Steal_wait;
  Queue.push e w.ready;
  Proc.Gate.signal w.gate;
  if t.cfg.Config.system = Config.Steal then wake_idle_siblings t w

(* Yield until [page]'s in-flight fetch completes; the completion pushes
   us on our worker's ready queue and the worker switches back. *)
let yield_on_inflight t e page =
  let w = t.workers.(e.worker) in
  enter t e Phase.Fetch_wire;
  Pager.add_waiter t.pager page (fun () -> enqueue_ready t w e);
  Task.suspend ()

(* --- page fetches --------------------------------------------------------- *)

(* One page READ (Fig. 5: post, park the faulting unithread, resume it
   from the CQE) and its recovery protocol, in one slot of the fetch
   pool. A demand fetch has an owner, the faulting entry, parked until
   the fetch settles; a prefetch has none ([nobody]) and no reposts, so
   a lost one just gives its frame back. Three transitions drive it:
   [post_fetch] posts the slot's current attempt with a fresh token,
   and that attempt's CQE ([fetch_cqe]) and timer ([fetch_timer]) act
   only while the token is the slot's [live] one. A completion the
   fabric delivers after its timer gave up, a duplicate, or one for an
   earlier fetch that used the same slot is thereby ignored (attempt
   numbers repeat across a slot's fetches, tokens never do), and the
   page stays Inflight across reposts until the fetch settles. A demand
   fetch frees its slot once the owner has read the outcome; a prefetch
   frees its slot when it settles. *)

(* A token is the post's serial above the slot's index. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* Double the pool. The new slots' hooks are made here, once. *)
let grow_fetches t =
  let f = t.fetches in
  let cap = Array.length f.page in
  let ncap = max 64 (2 * cap) in
  if ncap > slot_mask then invalid_arg "System: fetch pool exhausted";
  let extend a fill =
    Array.init ncap (fun s -> if s < cap then a.(s) else fill)
  in
  f.page <- extend f.page 0;
  f.home <- extend f.home 0;
  f.owner <- extend f.owner t.nobody;
  f.budget <- extend f.budget 0;
  f.live <- extend f.live (-1);
  f.attempt <- extend f.attempt 0;
  f.outcome <- extend f.outcome Pending;
  f.wake <- extend f.wake ignore;
  f.park <-
    Array.init ncap (fun s ->
        if s < cap then f.park.(s)
        else fun resume -> t.fetches.wake.(s) <- resume);
  f.free <- extend f.free 0;
  for s = ncap - 1 downto cap do
    f.free.(f.nfree) <- s;
    f.nfree <- f.nfree + 1
  done

let acquire_fetch t ~page (w : worker) ~owner ~budget =
  let f = t.fetches in
  if f.nfree = 0 then grow_fetches t;
  f.nfree <- f.nfree - 1;
  let s = f.free.(f.nfree) in
  f.page.(s) <- page;
  f.home.(s) <- w.wid;
  f.owner.(s) <- owner;
  f.budget.(s) <- budget;
  f.live.(s) <- -1;
  f.attempt.(s) <- 0;
  f.outcome.(s) <- Pending;
  s

let release_fetch t s =
  let f = t.fetches in
  f.live.(s) <- -1;
  f.owner.(s) <- t.nobody;
  f.wake.(s) <- ignore;
  f.free.(f.nfree) <- s;
  f.nfree <- f.nfree + 1

let owner_id t s =
  let e = t.fetches.owner.(s) in
  if e == t.nobody then -1 else e.req.Request.id

(* Coalesced faulters re-examine the page once its fetch settles. *)
let rec run_all = function
  | [] -> ()
  | f :: rest ->
    f ();
    run_all rest

let wake_waiters t page = run_all (Pager.take_waiters t.pager page)

(* A prefetched page nobody touched: it was evicted, or its fetch was
   abandoned. *)
let drop_prefetched t page =
  if Bytes.get t.prefetched page = '\001' then begin
    Bytes.set t.prefetched page '\000';
    t.prefetch_stats.Prefetcher.wasted <- t.prefetch_stats.Prefetcher.wasted + 1
  end

(* Only a live attempt settles a fetch, so this runs once per fetch. A
   busy-waiting owner resumes its spin; a yielded one goes back on its
   worker's ready queue; a prefetch frees its slot. *)
let settle t s outcome =
  let f = t.fetches in
  f.outcome.(s) <- outcome;
  let e = f.owner.(s) in
  if e == t.nobody then release_fetch t s
  else if is_busywait t.cfg then f.wake.(s) ()
  else enqueue_ready t t.workers.(f.home.(s)) e

let fetch_cqe t token =
  let f = t.fetches in
  let s = token land slot_mask in
  if f.live.(s) = token then begin
    f.live.(s) <- -1;
    let page = f.page.(s) in
    Pager.complete_fetch t.pager page;
    emit t Trace_event.Rdma_complete ~req:(owner_id t s) ~worker:f.home.(s)
      ~page;
    wake_waiters t page;
    settle t s Fetched
  end

(* Post slot [s]'s current attempt; its trace events name request [req]
   (a prefetch's names the request whose fault triggered it). A full QP
   backs off and reposts: in place when [blocking] (the first attempt,
   which runs on the worker), from a timer otherwise. *)
let rec post_fetch t s ~req ~blocking =
  let f = t.fetches in
  let page = f.page.(s) and n = f.attempt.(s) and bytes = t.app.App.page_size in
  let w = t.workers.(f.home.(s)) in
  (* re-route every attempt: a retry after a node death must land on a
     surviving replica, not repost into the dead NIC forever *)
  let node = Cluster.route_read t.cluster ~page in
  if n > 0 then Memnode.record_read (node_memnode t node) ~bytes;
  let token = (f.serial lsl slot_bits) lor s in
  if Nic.post w.qps.(node) ~opcode:Verbs.Read ~bytes ~cq:w.fetch_cq ~user:token
  then begin
    f.serial <- f.serial + 1;
    f.live.(s) <- token;
    emit t Trace_event.Rdma_issue ~req ~worker:w.wid ~page;
    let e = f.owner.(s) in
    if e != t.nobody then begin
      if node <> Cluster.current_primary t.cluster ~page then begin
        Cluster.note_failover t.cluster;
        emit t Trace_event.Failover ~req ~worker:w.wid ~page;
        if not (is_busywait t.cfg) then enter t e Phase.Failover_wait
      end;
      if not (Cluster.node_alive t.cluster node) then
        (* every replica dead: the post lands in a dead NIC and the
           timer will surface a Req_error *)
        Cluster.note_dead_read t.cluster
    end;
    if t.recover then
      (* exponential backoff: the deadline doubles per repost (capped
         at 64x) so a throttled fabric is not flooded *)
      arm_fetch_timer t token ~delay:(t.cfg.Config.fetch_timeout lsl min n 6)
  end
  else fetch_backoff t s ~req ~blocking

and fetch_backoff t s ~req ~blocking =
  bump t Counter.Qp_stalls;
  ev t Trace_event.Stall_qp ~req ~worker:t.fetches.home.(s)
    ~page:t.fetches.page.(s);
  if blocking then begin
    Proc.wait Params.qp_retry_cycles;
    post_fetch t s ~req ~blocking
  end
  else
    (* no attempt is live while this waits, so nothing can settle the
       fetch meanwhile *)
    Sim.schedule t.sim ~delay:Params.qp_retry_cycles (fun () ->
        post_fetch t s ~req ~blocking:false)

and arm_fetch_timer t token ~delay =
  Sim.schedule t.sim ~delay (fun () -> fetch_timer t token)

(* The attempt behind [token] outlived its deadline: repost within the
   budget, else abandon the fetch. The page reverts to Remote and its
   waiters refetch it themselves. *)
and fetch_timer t token =
  let f = t.fetches in
  let s = token land slot_mask in
  if f.live.(s) = token then begin
    f.live.(s) <- -1;
    let req = owner_id t s and worker = f.home.(s) and page = f.page.(s) in
    let n = f.attempt.(s) in
    bump t Counter.Fetch_timeouts;
    ev t Trace_event.Fetch_timeout ~req ~worker ~page;
    if n >= f.budget.(s) then begin
      Pager.abort_fetch t.pager page;
      wake_waiters t page;
      drop_prefetched t page;
      settle t s Failed
    end
    else begin
      bump t Counter.Fetch_retries;
      let hwm = Counter.index Counter.Retries_hwm in
      t.counts.(hwm) <- max t.counts.(hwm) (n + 1);
      ev t Trace_event.Fetch_retry ~req ~worker ~page;
      (* a parked owner now waits out the repost; a busy-waiting one
         stays in [Busy_wait] through it, since its CPU never stops
         spinning *)
      let e = f.owner.(s) in
      if e != t.nobody && not (is_busywait t.cfg) then
        enter t e Phase.Retry_backoff;
      f.attempt.(s) <- n + 1;
      post_fetch t s ~req ~blocking:false
    end
  end

(* Issue stride prefetches next to a demand fetch: detect the request's
   fault stride and pull the predicted pages without anyone waiting on
   them. Prefetches never take the last free frame or the last QP slots,
   so they cannot starve demand fetches, and their post always finds
   room. *)
let maybe_prefetch t e (w : worker) page =
  match t.cfg.Config.prefetch with
  | Config.No_prefetch -> ()
  | Config.Stride degree -> (
    match Prefetcher.Stride_detector.record e.detector page with
    | None -> ()
    | Some stride ->
      let pages = t.app.App.pages in
      let issued = ref 0 in
      for k = 1 to degree do
        let q = page + (k * stride) in
        (* the placement directory names the node to pull from *)
        let node =
          if q >= 0 && q < pages then Cluster.route_read t.cluster ~page:q
          else 0
        in
        if
          q >= 0 && q < pages
          && Pager.state t.pager q = Pager.Remote
          && Pager.free_frames t.pager > 1
          && Nic.outstanding w.qps.(node) < t.cfg.Config.qp_depth - 2
        then begin
          Pager.start_fetch t.pager q;
          Memnode.record_read (node_memnode t node) ~bytes:t.app.App.page_size;
          post_fetch t
            (acquire_fetch t ~page:q w ~owner:t.nobody ~budget:0)
            ~req:e.req.Request.id ~blocking:true;
          incr issued;
          Bytes.set t.prefetched q '\001';
          t.prefetch_stats.Prefetcher.issued <-
            t.prefetch_stats.Prefetcher.issued + 1
        end
      done;
      if !issued > 0 then charge_pf t e (60 * !issued))

(* Bring one page to Present, handling every interleaving: the fault
   path blocks at several points (software cost, frame wait, QP wait),
   and meanwhile another unithread may fetch or evict the same page, so
   each blocking step is followed by a state re-check. *)
let rec ensure_present t e page =
  match Pager.state t.pager page with
  | Pager.Present ->
    if Bytes.get t.prefetched page = '\001' then begin
      Bytes.set t.prefetched page '\000';
      t.prefetch_stats.Prefetcher.useful <-
        t.prefetch_stats.Prefetcher.useful + 1
    end;
    if Params.hit_touch_cycles > 0 then charge_pf t e Params.hit_touch_cycles
  | Pager.Inflight ->
    bump t Counter.Coalesced;
    let rid = e.req.Request.id and wid = e.worker in
    ev t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
    ev t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    if is_busywait t.cfg then spin_on_inflight t e page
    else yield_on_inflight t e page;
    ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
    ensure_present t e page
  | Pager.Remote -> fault t e page

(* Acquire a frame and a QP slot for a fault on [page]; [false] if the
   page left Remote meanwhile. Each blocking wait is followed by a
   re-check, since the world moves while we sleep. *)
and prepare_fault t e (w : worker) page =
  if Pager.state t.pager page <> Pager.Remote then false
  else if Pager.free_frames t.pager <= 0 then begin
    wait_frame t e page;
    prepare_fault t e w page
  end
  else begin
    (* route first (liveness may change while we slept), then check
       the QP serving that node *)
    let node = Cluster.route_read t.cluster ~page in
    if Nic.outstanding w.qps.(node) >= t.cfg.Config.qp_depth then begin
      bump t Counter.Qp_stalls;
      ev t Trace_event.Stall_qp ~req:e.req.Request.id ~worker:w.wid ~page;
      enter t e Phase.Pf_software;
      Proc.wait Params.qp_retry_cycles;
      prepare_fault t e w page
    end
    else true
  end

(* Handle a fault on a Remote page under the configured policy. *)
and fault t e page =
  bump t Counter.Faults;
  let rid = e.req.Request.id and wid = e.worker in
  ev t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
  let sw =
    Params.fault_sw_cycles
    +
    match t.cfg.Config.system with
    | Config.Hermit -> Params.hermit_fault_extra_cycles
    | Config.Dilos | Config.Dilos_p | Config.Adios | Config.Steal -> 0
  in
  charge_pf t e sw;
  let w = t.workers.(e.worker) in
  if not (prepare_fault t e w page) then begin
    (* the page moved on while we slept: this fault was absorbed by
       someone else's fetch (or it is already Present) *)
    ev t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
    ensure_present t e page
  end
  else begin
    Pager.start_fetch t.pager page;
    Memnode.record_read
      (node_memnode t (Cluster.route_read t.cluster ~page))
      ~bytes:t.app.App.page_size;
    maybe_prefetch t e w page;
    let s =
      acquire_fetch t ~page w ~owner:e ~budget:t.cfg.Config.fetch_retries
    in
    if is_busywait t.cfg then begin
      (* the spin covers the post (incl. QP backoff) and the CQE wait *)
      enter t e Phase.Busy_wait;
      post_fetch t s ~req:rid ~blocking:true;
      if t.fetches.outcome.(s) = Pending then Proc.suspend t.fetches.park.(s);
      enter t e Phase.Pf_software
    end
    else begin
      (* Adios: issue and yield (Fig. 5 steps 4-5, 8-10). Wire time
         opens before the post so a blocking QP backoff counts against
         the fetch; the CQE's [enqueue_ready] closes it. *)
      enter t e Phase.Fetch_wire;
      post_fetch t s ~req:rid ~blocking:true;
      if t.fetches.outcome.(s) = Pending then Task.suspend ()
    end;
    let outcome = t.fetches.outcome.(s) in
    release_fetch t s;
    match outcome with
    | Failed ->
      ev t Trace_event.Req_error ~req:rid ~worker:wid ~page;
      ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
      raise (Fetch_failed page)
    | Fetched | Pending ->
      (* map the fetched page and return (Fig. 5 step 10) *)
      charge_pf t e Params.map_page_cycles;
      ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page
  end

(* Touch every page of [addr, addr+len); hit, coalesce or fault. *)
let touch_range t e ~addr ~len ~write =
  let page_size = t.app.App.page_size in
  let first = addr / page_size
  and last = (addr + len - 1) / page_size in
  for page = first to last do
    ensure_present t e page;
    Pager.touch t.pager page;
    if write then Pager.mark_dirty t.pager page
  done

(* --- application context ------------------------------------------------ *)

let make_ctx t e =
  let compute cycles =
    enter t e Phase.App_compute;
    Proc.wait cycles
  in
  let checkpoint () =
    match t.cfg.Config.system with
    | Config.Dilos_p ->
      compute Params.preempt_probe_cycles;
      if
        Sim.now t.sim - e.quantum_start >= Params.preempt_interval_cycles
      then begin
        bump t Counter.Preemptions;
        ev t Trace_event.Preempt ~req:e.req.Request.id ~worker:e.worker;
        compute Params.preempt_fire_cycles;
        e.preempted <- true;
        Task.suspend ()
      end
    | Config.Dilos | Config.Adios | Config.Hermit | Config.Steal -> ()
  in
  let view =
    View.make t.arena ~touch:(fun ~addr ~len ~write ->
        touch_range t e ~addr ~len ~write)
  in
  { App.view; compute; checkpoint; rng = t.rng }

(* --- reply transmission -------------------------------------------------- *)

let send_reply t e =
  let req = e.req in
  let bytes = req.Request.spec.Request.reply_bytes in
  (* Tx runs to the reply's client RX stamp: it covers the post, the
     wire, and (under Tx_sync_spin) is split below around the CQE spin *)
  enter t e Phase.Tx;
  Proc.wait Params.reply_post_cycles;
  ev t Trace_event.Tx_submit ~req:req.Request.id ~worker:e.worker;
  match t.cfg.Config.tx_mode with
  | Config.Tx_delegated | Config.Tx_deferred ->
    (* the worker moves on; the slot's [tx_cqe] recycles the buffer *)
    Raw_eth.send t.reply_channel ~bytes req
  | Config.Tx_sync_spin ->
    (* naive design: the worker busy-waits for the CQE *)
    enter t e Phase.Busy_wait;
    Raw_eth.send t.reply_channel ~bytes req;
    Proc.suspend e.tx_park;
    enter t e Phase.Tx;
    Buffer_pool.free t.buffers req.Request.buffer

(* The reply channel's TX completion: the CQE follows the packet's
   departure by the CQE latency. The reply's buffer names its slot. *)
let reply_sent sim slots req =
  Sim.schedule sim ~delay:Params.tx_cqe_latency_cycles
    slots.by_buffer.(req.Request.buffer).tx_cqe

(* The CQE of slot [e]'s reply. *)
let tx_cqe t e =
  let rid = e.req.Request.id in
  match t.cfg.Config.tx_mode with
  | Config.Tx_delegated ->
    (* Fig. 6: the TX completion is raised on the dispatcher's CQ; the
       dispatcher recycles the buffer while the worker moves on *)
    emit t Trace_event.Tx_complete ~req:rid ~worker:(-1) ~page:(-1);
    (* lint: allow zero-alloc -- the recycle queue's cell, one per reply; Queue cells are the next allocation to go (ROADMAP item 3) *)
    Queue.push e.req.Request.buffer t.recycle;
    Proc.Gate.signal t.dispatch_gate
  | Config.Tx_sync_spin ->
    emit t Trace_event.Tx_complete ~req:rid ~worker:e.worker ~page:(-1);
    e.tx_resume ()
  | Config.Tx_deferred ->
    (* run-to-completion baselines reap TX completions lazily, off the
       worker's critical path *)
    emit t Trace_event.Tx_complete ~req:rid ~worker:(-1) ~page:(-1);
    Buffer_pool.free t.buffers e.req.Request.buffer

(* --- unithread slots ------------------------------------------------------ *)

let run_handler t ctx e () =
  try t.app.App.handle ctx e.req.Request.spec with
  | Fetch_failed _ -> e.req.Request.errored <- true
  | App.Bad_request _ -> e.req.Request.errored <- true

let make_slot t =
  let detector =
    match t.cfg.Config.prefetch with
    | Config.Stride _ -> Prefetcher.Stride_detector.create ()
    | Config.No_prefetch -> t.nobody.detector
  in
  let rec e =
    {
      req = t.nobody.req;
      task = t.nobody.task;
      detector;
      started = false;
      worker = -1;
      quantum_start = 0;
      preempted = false;
      tx_cqe = (fun () -> tx_cqe t e);
      tx_resume = ignore;
      tx_park = (fun resume -> e.tx_resume <- resume);
    }
  in
  e.task <- Task.create (run_handler t (make_ctx t e) e);
  e

let grow_slots t buffer =
  let old = t.slots.by_buffer in
  let slots = Array.make (max 64 (2 * (buffer + 1))) t.nobody in
  Array.blit old 0 slots 0 (Array.length old);
  t.slots.by_buffer <- slots

(* Buffer [buffer]'s slot, made fresh for [req]. *)
let slot t buffer req =
  if buffer >= Array.length t.slots.by_buffer then grow_slots t buffer;
  if t.slots.by_buffer.(buffer) == t.nobody then
    t.slots.by_buffer.(buffer) <- make_slot t;
  let e = t.slots.by_buffer.(buffer) in
  e.req <- req;
  e.started <- false;
  e.worker <- -1;
  e.quantum_start <- 0;
  e.preempted <- false;
  Task.rearm e.task;
  (match t.cfg.Config.prefetch with
  | Config.Stride _ -> Prefetcher.Stride_detector.reset e.detector
  | Config.No_prefetch -> ());
  e

(* --- worker -------------------------------------------------------------- *)

let requeue t e =
  enter t e Phase.Queue;
  Queue.push e t.pending;
  Proc.Gate.signal t.dispatch_gate

let step_task t e =
  let rid = e.req.Request.id and wid = e.worker in
  ev t Trace_event.Run_begin ~req:rid ~worker:wid;
  (match Task.run e.task with
  | Task.Finished ->
    (* an errored handler still replies — with an error status — so the
       buffer recycles and request conservation holds under faults *)
    if e.req.Request.errored then bump t Counter.Errored
    else bump t Counter.Handled;
    send_reply t e
  | Task.Suspended ->
    if e.preempted then begin
      e.preempted <- false;
      requeue t e
    end
    (* else: fault yield; the fetch completion re-enqueues the entry *));
  ev t Trace_event.Run_end ~req:rid ~worker:wid

let run_entry t w e =
  e.worker <- w.wid;
  if e.started then begin
    (* preempted unithread re-dispatched: switch back in *)
    enter t e Phase.Ctx_switch;
    Proc.wait Params.ctx_switch_cycles;
    e.quantum_start <- Sim.now t.sim;
    step_task t e
  end
  else begin
    enter t e Phase.Ctx_switch;
    Proc.wait (Params.unithread_create_cycles + Params.ctx_switch_cycles);
    (match t.cfg.Config.system with
    | Config.Hermit ->
      enter t e Phase.App_compute;
      Proc.wait Params.hermit_request_extra_cycles;
      if Rng.uniform t.rng < Params.hermit_jitter_probability then begin
        let span =
          Params.hermit_jitter_max_cycles - Params.hermit_jitter_min_cycles
        in
        Proc.wait (Params.hermit_jitter_min_cycles + Rng.int t.rng span)
      end
    | Config.Dilos | Config.Dilos_p | Config.Adios | Config.Steal -> ());
    e.quantum_start <- Sim.now t.sim;
    e.started <- true;
    step_task t e
  end

let resume_ready t e =
  (* poll + switch-in is one wait; attribute it wholly to CQ polling
     rather than splitting it (an extra event could shift tie-breaks) *)
  enter t e Phase.Cq_poll;
  Proc.wait (Params.poll_cycles + Params.ctx_switch_cycles);
  step_task t e

(* Work stealing: take the head of the longest sibling queue that
   [queue] selects (FCFS order within the victim). The scan costs
   cycles, and the victim may drain its own queue during that wait (the
   take re-checks). *)
let try_steal t (w : worker) queue =
  let victim = ref None and best = ref 0 in
  Array.iter
    (fun v ->
      let len = Queue.length (queue v) in
      if v.wid <> w.wid && len > !best then begin
        victim := Some v;
        best := len
      end)
    t.workers;
  match !victim with
  | Some v ->
    acct_cpu t ~cpu:w.wid Acct.Dispatch;
    Proc.wait Params.steal_cycles;
    let taken = Queue.take_opt (queue v) in
    if Option.is_some taken then bump t Counter.Steals;
    taken
  | None -> None

let rec worker_loop t (w : worker) =
  if not (Queue.is_empty w.ready) then begin
    w.idle <- false;
    let e = Queue.pop w.ready in
    resume_ready t e;
    worker_loop t w
  end
  else if w.assigned != t.nobody then begin
    let e = w.assigned in
    w.idle <- false;
    w.assigned <- t.nobody;
    run_entry t w e;
    worker_loop t w
  end
  else
    match Queue.take_opt w.local with
    | Some e ->
      w.idle <- false;
      ev t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid;
      run_entry t w e;
      worker_loop t w
    | None -> (
      let stolen =
        if t.cfg.Config.dispatch = Config.Work_stealing then
          try_steal t w (fun v -> v.local)
        else None
      in
      match stolen with
      | Some e ->
        w.idle <- false;
        ev t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid;
        run_entry t w e;
        worker_loop t w
      | None -> (
        (* the Steal system's extra axis: blocked-then-resumed
           requests from the sibling ready queues, re-homed so their
           later faults are issued on the thief's QPs and their later
           resumptions land on the thief *)
        let resumed =
          if t.cfg.Config.system = Config.Steal then
            try_steal t w (fun v -> v.ready)
          else None
        in
        match resumed with
        | Some e ->
          e.worker <- w.wid;
          w.idle <- false;
          resume_ready t e;
          worker_loop t w
        | None ->
          w.idle <- true;
          Proc.Gate.signal t.dispatch_gate;
          acct_cpu t ~cpu:w.wid Acct.Idle;
          Proc.Gate.await w.gate;
          worker_loop t w))

(* --- dispatcher ---------------------------------------------------------- *)

(* Algorithm 1's sort key of candidate worker [w] among [n]: for
   round-robin, [w]'s distance past the cursor, wrapped by a compare
   since both lie in [0, n). *)
let dispatch_key policy ~rr_cursor ~load ~n w =
  match policy with
  | Config.Pf_aware -> load.(w)
  | Config.Round_robin ->
    let d = w - rr_cursor in
    if d < 0 then d + n else d
  | Config.Partitioned | Config.Work_stealing ->
    (* these policies never consult the idle order *)
    0

(* Stable insertion sort, candidates visited in id order: each goes
   behind every earlier one whose key is not larger. *)
let dispatch_order policy ~rr_cursor ~load ~order =
  let n = Array.length load in
  let len = ref 0 in
  for w = 0 to n - 1 do
    if load.(w) >= 0 then begin
      let key = dispatch_key policy ~rr_cursor ~load ~n w in
      let j = ref !len in
      while
        !j > 0 && dispatch_key policy ~rr_cursor ~load ~n order.(!j - 1) > key
      do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- w;
      incr len
    end
  done;
  !len

(* Algorithm 1: the idle, unassigned workers in [t.order], by
   outstanding page-fetch count; round-robin rotates from the cursor
   instead. Returns how many there are. *)
let idle_order t =
  let pf_aware = t.cfg.Config.dispatch = Config.Pf_aware in
  for i = 0 to Array.length t.workers - 1 do
    let w = t.workers.(i) in
    t.load.(i) <-
      (if not (w.idle && w.assigned == t.nobody) then -1
       else if pf_aware then qp_load w
       else 0)
  done;
  dispatch_order t.cfg.Config.dispatch ~rr_cursor:t.rr_cursor ~load:t.load
    ~order:t.order

(* The worker after [wid], round-robin. *)
let next_worker t wid =
  if wid + 1 = Array.length t.workers then 0 else wid + 1

let assign t (w : worker) e =
  ev t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid;
  t.rr_cursor <- next_worker t w.wid;
  w.assigned <- e;
  w.idle <- false;
  Proc.Gate.signal w.gate

let rec dispatcher_loop t =
  let dcpu = Array.length t.workers in
  acct_cpu t ~cpu:dcpu Acct.Idle;
  Proc.Gate.await t.dispatch_gate;
  acct_cpu t ~cpu:dcpu Acct.Dispatch;
  (* recycle delegated TX completions first: batched, cheap *)
  while not (Queue.is_empty t.recycle) do
    let buffer = Queue.pop t.recycle in
    Proc.wait Params.recycle_cycles;
    Buffer_pool.free t.buffers buffer
  done;
  (match t.cfg.Config.dispatch with
  | Config.Pf_aware | Config.Round_robin ->
    (* single queue: dispatch to idle workers (Algorithm 1 or RR) *)
    let progress = ref true in
    while !progress && not (Queue.is_empty t.pending) do
      let candidates = idle_order t in
      if candidates = 0 then progress := false
      else
        for i = 0 to candidates - 1 do
          let w = t.workers.(t.order.(i)) in
          if
            (not (Queue.is_empty t.pending))
            && w.idle
            && w.assigned == t.nobody
          then begin
            let e = Queue.pop t.pending in
            Proc.wait Params.dispatch_cycles;
            assign t w e
          end
        done
    done
  | Config.Partitioned | Config.Work_stealing ->
    (* d-FCFS: spray arrivals over per-worker queues with no regard for
       their occupancy; rebalancing, if any, is the workers' problem *)
    while not (Queue.is_empty t.pending) do
      let e = Queue.pop t.pending in
      Proc.wait Params.dispatch_cycles;
      let w = t.workers.(t.rr_cursor) in
      t.rr_cursor <- next_worker t t.rr_cursor;
      Queue.push e w.local;
      Proc.Gate.signal w.gate;
      if t.cfg.Config.dispatch = Config.Work_stealing then
        wake_idle_siblings t w
    done);
  dispatcher_loop t

(* --- admission ----------------------------------------------------------- *)

let receive t ~rx_at req =
  req.Request.rx_at <- rx_at;
  if Queue.length t.pending >= t.cfg.Config.central_queue_capacity then begin
    bump t Counter.Drops_queue;
    ev t Trace_event.Req_drop_queue ~req:req.Request.id
  end
  else
    let buffer = Buffer_pool.alloc t.buffers in
    if buffer < 0 then begin
      bump t Counter.Drops_buffer;
      ev t Trace_event.Stall_buffer ~req:req.Request.id;
      ev t Trace_event.Req_drop_buffer ~req:req.Request.id
    end
    else begin
      req.Request.buffer <- buffer;
      bump t Counter.Admitted;
      ev t Trace_event.Req_enqueue ~req:req.Request.id;
      (* profiled ⟺ admitted: drops never open attribution state *)
      (match t.prof with
      | Some p ->
        req.Request.prof <-
          Some
            (Profiler.attach p ~id:req.Request.id ~tx_at:req.Request.tx_at
               ~now:(Sim.now t.sim))
      | None -> ());
      Queue.push (slot t buffer req) t.pending;
      Proc.Gate.signal t.dispatch_gate
    end

(* --- construction -------------------------------------------------------- *)

let prefill_pages t =
  (* Warm the cache to its steady-state occupancy: resident up to the
     reclaimer's high watermark of free frames, pages chosen uniformly. *)
  let pages = t.app.App.pages in
  let capacity = Pager.capacity t.pager in
  let high = t.cfg.Config.reclaim_config.Reclaimer.high_watermark in
  let target =
    if capacity >= pages then pages (* whole working set fits: map it all *)
    else capacity - int_of_float (ceil (high *. float_of_int capacity))
  in
  let target = max 0 (min target capacity) in
  if target >= pages then
    Pager.prefill t.pager (List.init pages (fun i -> i))
  else begin
    let chosen = Hashtbl.create (2 * target) in
    let picked = ref 0 in
    while !picked < target do
      let p = Rng.int t.rng pages in
      if not (Hashtbl.mem chosen p) then begin
        Hashtbl.add chosen p ();
        incr picked
      end
    done;
    Pager.prefill t.pager (Hashtbl.fold (fun p () acc -> p :: acc) chosen [])
  end

(* Post one write-back WRITE, waiting out a full QP on the reclaimer.
   The WR carries the page, which the reclaim CQ's drain traces. *)
let rec post_writeback t ~node ~page =
  let actor = Trace_event.reclaimer_actor in
  if
    Nic.post t.reclaim_qps.(node) ~opcode:Verbs.Write
      ~bytes:t.app.App.page_size ~cq:t.reclaim_cq ~user:page
  then ev t Trace_event.Rdma_issue ~req:actor ~worker:actor ~page
  else begin
    bump t Counter.Writeback_stalls;
    ev t Trace_event.Stall_qp ~req:actor ~worker:actor ~page;
    Proc.wait Params.qp_retry_cycles;
    post_writeback t ~node ~page
  end

let evict_page t ~page ~dirty =
  drop_prefetched t page;
  if dirty then begin
    (* write the page back to every alive replica before dropping it *)
    match Cluster.write_targets t.cluster ~page with
    | [] ->
      (* every replica is dead; the copy is gone until re-replication
         (or forever under R = 1) — count it, don't wedge the reclaimer *)
      Cluster.note_lost_write t.cluster
    | targets ->
      List.iter
        (fun node ->
          Memnode.record_write (node_memnode t node)
            ~bytes:t.app.App.page_size;
          post_writeback t ~node ~page)
        targets
  end

let create ?(trace = Trace_sink.null) ?prof sim cfg app ~arena ~on_reply =
  if
    Arena.pages arena <> app.App.pages
    || Arena.page_size arena <> app.App.page_size
  then invalid_arg "System.create: the arena is not the app's size";
  let capacity =
    max 2 (int_of_float (cfg.Config.local_ratio *. float_of_int app.App.pages))
  in
  let capacity = min capacity app.App.pages in
  let pager = Pager.create ~pages:app.App.pages ~capacity in
  Pager.attach_trace pager trace ~now:(fun () -> Sim.now sim);
  let fault =
    if Injector.enabled cfg.Config.fault then
      Some (Injector.create cfg.Config.fault)
    else None
  in
  (* The cluster owns every memory node — links, NICs, memnodes,
     placement, fault schedules. Node 0 is aliased below so the
     single-node default stays byte-identical (same objects, same
     creation order of schedulable state, zero extra events). *)
  let cluster =
    Cluster.create ~trace ?fault sim cfg.Config.cluster ~pages:app.App.pages
      ~page_size:app.App.page_size ~gbps:Params.link_gbps
      ~wire_overhead:Params.wire_overhead
      ~wqe_overhead_cycles:Params.wqe_overhead_cycles
      ~base_latency_cycles:Params.rdma_base_latency_cycles
      ~qp_depth:cfg.Config.qp_depth
      ~throttle:cfg.Config.fault.Injector.throttle
      ~rereplicate_gap_cycles:Params.rereplicate_gap_cycles
      ~seed:cfg.Config.seed
  in
  (* a completion can be lost only on a faulty fabric or to a node
     crash; a clean run arms no fetch timer *)
  let recover =
    Option.is_some fault || (Cluster.config cluster).Cluster.crashes > 0
  in
  if recover && cfg.Config.fetch_timeout <= 0 then
    invalid_arg "System.create: fetch_timeout must be positive";
  let node0 = (Cluster.nodes cluster).(0) in
  let nic = node0.Cluster.nic in
  let nobody =
    {
      req =
        Request.make ~id:(-1)
          ~spec:{ Request.kind = 0; key = 0; req_bytes = 0; reply_bytes = 0 }
          ~tx_at:0;
      task = Task.create ignore;
      detector = Prefetcher.Stride_detector.create ();
      started = false;
      worker = -1;
      quantum_start = 0;
      preempted = false;
      tx_cqe = ignore;
      tx_resume = ignore;
      tx_park = ignore;
    }
  in
  let slots = { by_buffer = [||] } in
  let reply_link = Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead () in
  let reply_channel =
    Raw_eth.create sim ~link:reply_link
      ~latency_cycles:Params.eth_latency_cycles
      ~on_tx_complete:(reply_sent sim slots)
      ~deliver:(fun ~rx_at req ->
        req.Request.done_at <- rx_at;
        on_reply req)
  in
  let rng = Rng.create cfg.Config.seed in
  let cluster_nodes = Cluster.nodes cluster in
  (* QP layout per NIC: worker QPs in wid order, then the reclaim QP —
     node 0 keeps exactly the old single-NIC layout, so the NIC's
     round-robin arbitration replays byte-identically *)
  let workers =
    Array.init cfg.Config.workers (fun wid ->
        let qps =
          Array.map
            (fun nd -> Nic.create_qp nd.Cluster.nic ~depth:cfg.Config.qp_depth)
            cluster_nodes
        in
        {
          wid;
          qps;
          fetch_cq = Verbs.Cq.create ();
          gate = Proc.Gate.create sim;
          ready = Queue.create ();
          local = Queue.create ();
          assigned = nobody;
          idle = false;
        })
  in
  let reclaim_qps =
    Array.map
      (fun nd -> Nic.create_qp nd.Cluster.nic ~depth:cfg.Config.qp_depth)
      cluster_nodes
  in
  let reclaim_cq = Verbs.Cq.create () in
  let t =
    {
      sim;
      cfg;
      app;
      arena;
      pager;
      cluster;
      nic;
      reclaim_qps;
      reclaim_cq;
      reply_channel;
      workers;
      pending = Queue.create ();
      dispatch_gate = Proc.Gate.create sim;
      recycle = Queue.create ();
      buffers = Buffer_pool.create ~count:cfg.Config.buffer_count
          Buffer_pool.unithread_layout;
      slots;
      prefetched = Bytes.make app.App.pages '\000';
      prefetch_stats = Prefetcher.make_stats ();
      rr_cursor = 0;
      load = Array.make cfg.Config.workers 0;
      order = Array.make cfg.Config.workers 0;
      fetches =
        {
          page = [||];
          home = [||];
          owner = [||];
          budget = [||];
          live = [||];
          attempt = [||];
          outcome = [||];
          wake = [||];
          park = [||];
          free = [||];
          nfree = 0;
          serial = 0;
        };
      nobody;
      rng;
      reclaimer = None;
      counts = Array.make Counter.count 0;
      fault;
      recover;
      trace;
      trace_on = Trace_sink.enabled trace;
      acct = Acct.create sim ~cpus:(cfg.Config.workers + 1);
      prof;
      prof_on = Option.is_some prof;
    }
  in
  grow_fetches t;
  (* CQ drains run the completion handlers at once: a spinning poller
     sees its CQE the moment it arrives; yield-mode handlers only
     enqueue the unithread, and the worker switches back later *)
  Array.iter
    (fun w ->
      let on_cqe (c : int Verbs.completion) = fetch_cqe t c.Verbs.user in
      Verbs.Cq.set_notify w.fetch_cq (fun () ->
          Verbs.Cq.drain w.fetch_cq on_cqe))
    workers;
  let on_writeback (c : int Verbs.completion) =
    let actor = Trace_event.reclaimer_actor in
    ev t Trace_event.Rdma_complete ~req:actor ~worker:actor ~page:c.Verbs.user
  in
  Verbs.Cq.set_notify reclaim_cq (fun () ->
      Verbs.Cq.drain reclaim_cq on_writeback);
  prefill_pages t;
  let reclaimer =
    Reclaimer.start ~trace sim pager cfg.Config.reclaim
      cfg.Config.reclaim_config
      ~evict_page:(fun ~page ~dirty -> evict_page t ~page ~dirty)
  in
  t.reclaimer <- Some reclaimer;
  Proc.spawn sim (fun () -> dispatcher_loop t);
  Array.iter (fun w -> Proc.spawn sim (fun () -> worker_loop t w)) workers;
  (* arm the node crash/slowdown schedules last: a default cluster
     schedules nothing here, preserving byte-identical replay *)
  Cluster.start cluster;
  t

(* --- metrics -------------------------------------------------------------- *)

(* Every {!Counter.t}, then the occupancy gauges and the subsystem
   metrics. *)
let register_metrics t reg ~labels =
  List.iter
    (fun c ->
      let { Counter.name; help; gauge } = Counter.describe c in
      let name = "adios_sys_" ^ name and read () = counter t c in
      if gauge then
        Registry.gauge reg ~name ~help ~labels (fun () ->
            float_of_int (read ()))
      else Registry.counter reg ~name:(name ^ "_total") ~help ~labels read)
    Counter.all;
  let gauge name help read = Registry.gauge reg ~name ~help ~labels read in
  let count_workers f =
    float_of_int (Array.fold_left (fun acc w -> acc + f w) 0 t.workers)
  in
  gauge "adios_sys_pending_depth" "Requests in the central queue" (fun () ->
      float_of_int (Queue.length t.pending));
  gauge "adios_sys_ready_backlog"
    "Entries across per-worker ready and local queues" (fun () ->
      count_workers (fun w -> Queue.length w.ready + Queue.length w.local));
  gauge "adios_sys_busy_workers" "Workers currently not idle" (fun () ->
      count_workers (fun w -> if w.idle then 0 else 1));
  gauge "adios_sys_buffers_in_use" "Unithread buffers currently in use"
    (fun () -> float_of_int (Buffer_pool.in_use t.buffers));
  Registry.counter reg ~name:"adios_sim_clamped_schedules_total"
    ~help:"Past-deadline schedules clamped to now by the engine" ~labels
    (fun () -> Sim.clamped_schedules t.sim);
  (* a multi-node topology registers every NIC, node 0's included,
     under a node label below *)
  if not (Cluster.enabled t.cfg.Config.cluster) then
    Nic.register_metrics t.nic reg ~labels;
  Pager.register_metrics t.pager reg ~labels;
  (match t.reclaimer with
  | Some r -> Reclaimer.register_metrics r reg ~labels
  | None -> ());
  Acct.register_metrics t.acct reg ~labels;
  (* cluster series only when the topology is non-trivial, so the
     single-node metrics export stays byte-identical *)
  if Cluster.enabled t.cfg.Config.cluster then
    Cluster.register_metrics t.cluster reg ~labels
