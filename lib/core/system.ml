module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc
module Gate = Adios_engine.Gate
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

(* The dispatcher and the workers are event-driven actors, not
   fibers: only a request's unithread runs on one. Each wait of an
   actor's loop is one [Sim.schedule] of a closure made once with the
   actor (a worker's [step], the dispatcher's [advance]), after it
   records where its loop picks up when that event fires (a worker's
   [at], the dispatcher's [stage]). A gate wake-up, and for a worker a
   synchronous TX's completion, schedule the same closure at delay 0. *)
type stage =
  | Idle  (** woken at its gate: back to the top of the loop *)
  | Polled  (** a ready entry polled and switched in: run it *)
  | Switched  (** a dispatched entry switched in: start its quantum *)
  | Created  (** a new unithread created and switched in *)
  | Kernel_entered  (** Hermit's per-request kernel path paid *)
  | Stole_local  (** the scan for a local queue to steal from paid *)
  | Stole_ready  (** the scan for a ready queue to steal from paid *)
  | Reply_posted  (** the reply's post paid *)
  | Tx_completed  (** the synchronous reply's TX completion arrived *)

(* A unithread slot: one per buffer id, made on the buffer's first use
   and reset whenever the buffer admits a request (Fig. 4: a request's
   context lives in its pre-allocated buffer). Everything a request's
   life needs to call back into is made with the slot — its task, whose
   body serves [req], the task's [App.ctx] and its wake-up — so
   admitting, running, faulting and replying allocate none of it
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
  wake : unit -> unit;
      (** the slot's one event callback: it ends the unithread's page
          or frame wait ([settle] and the pager's page and frame
          waiters call it), and once the handler has finished it is the
          reply's TX completion. The request holds its buffer until
          that has run, so the slot still holds the request. *)
}

and worker = {
  wid : int;
  qps : int Nic.qp array;
      (** one QP per memory node; each WR carries a fetch token *)
  fetch_cq : int Verbs.Cq.t;
  gate : Gate.t;
  ready : entry Queue.t;
  local : entry Queue.t; (* per-worker queue (partitioned / stealing) *)
  mutable assigned : entry;  (** [nobody] when none *)
  mutable idle : bool;
  mutable at : stage;
  mutable current : entry;
      (** the entry being switched in, run or replied for *)
  mutable victim : int;  (** the worker a steal scan picked *)
  mutable step : unit -> unit;  (** resumes the loop at [at] *)
  mutable returned : Task.outcome -> unit;
      (** the host of [current]'s task: the loop after it returns *)
  park : (unit -> unit) -> unit;
      (** the [Proc.suspend] hook of a unithread that blocks this CPU
          in a page or frame wait: keeps the wait's one-shot [resume] *)
  mutable resume : unit -> unit;
}

(* Where the dispatcher's loop picks up; [dispatcher] holds what it
   carries across a wait. *)
type dispatch_stage =
  | Woken  (** woken at its gate *)
  | Recycled  (** a delegated TX completion's recycle cost paid *)
  | Assigned  (** Algorithm 1's per-request dispatch cost paid *)
  | Sprayed  (** d-FCFS's per-request dispatch cost paid *)

type dispatcher = {
  mutable stage : dispatch_stage;
  mutable buffer : int;  (** being recycled *)
  mutable entry : entry;  (** being dispatched *)
  mutable target : int;  (** to this worker, under Algorithm 1 *)
  mutable cursor : int;  (** the next position of [order] to try *)
  mutable candidates : int;  (** positions [idle_order] filled *)
  mutable advance : unit -> unit;  (** resumes the loop at [stage] *)
}

type outcome = Pending | Fetched | Failed

(* Every page READ that is posted or waiting to post holds one slot of
   this pool: the simulator's counterpart of the paper's pre-allocated
   per-request memory. *)
type fetch = {
  index : int;  (** the slot's place in [pool]: its tokens' low bits *)
  mutable next_free : int;  (** the free list's next slot; -1: none *)
  mutable page : int;
  mutable home : int;  (** the worker whose QPs carry every attempt *)
  mutable owner : entry;
      (** the waiting faulting entry; [nobody] for a prefetch *)
  mutable budget : int;  (** reposts allowed after a timeout *)
  mutable live : int;
      (** token of the attempt whose CQE or timer acts; -1: none *)
  mutable attempt : int;
  mutable outcome : outcome;
}

type fetches = {
  mutable pool : fetch array;  (** doubles when no slot is free *)
  mutable free : int;  (** the first free slot; -1: none *)
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
  dispatch_gate : Gate.t;
  disp : dispatcher;
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
  reclaimer : Reclaimer.t;
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
   read and the cross-module [emit] call. That call stays out of line:
   inlined at each site, the sink's ring write grew [fault] from 11 to
   17 KB of code. A field the event does not name is
   [Trace_event.none]. *)
let emit t kind ~req ~worker ~page =
  if t.trace_on then
    (Trace_sink.emit [@inlined never]) t.trace ~ts:(Sim.now t.sim) ~kind ~req
      ~worker ~page

let accountant t = t.acct

(* Time attribution. Like [emit] these probes never schedule events or
   touch the RNG: they read [Sim.now] and mutate arrays, so neither the
   accountant nor the profiler can perturb the run. Each blocking site
   below enters its phase *before* it waits; sites with no intervening
   wait need no probe (zero cycles would accrue).

   [enter] moves a request to [phase] and, when the phase runs on a CPU
   ([Phase.cpu_state], whose [Some]s are static constants), its worker
   to the matching accountant state, so the two accounts cannot
   disagree about who was doing what.
   [acct_cpu] is left for the switches no request is part of: idle and
   dispatch work. *)
let acct_cpu t ~cpu st = if cpu >= 0 then Acct.switch t.acct ~cpu st

let[@zero_alloc] enter t e phase =
  (match Phase.cpu_state phase with
  | Some st -> acct_cpu t ~cpu:e.worker st
  | None -> ());
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.switch r ~now:(Sim.now t.sim) phase
    | None -> ()

let reclaimer t = t.reclaimer

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

(* Ensure a frame is available, stalling on memory pressure. The stall
   blocks the CPU on every system. *)
let wait_frame t e page =
  Reclaimer.trigger t.reclaimer;
  if Pager.free_frames t.pager <= 0 then begin
    bump t Counter.Frame_stalls;
    emit t Trace_event.Stall_frame ~req:e.req.Request.id ~worker:e.worker
      ~page;
    enter t e Phase.Pf_software;
    Pager.wait_frame t.pager e.wake;
    Proc.suspend t.workers.(e.worker).park
  end

let charge_pf t e cycles =
  enter t e Phase.Pf_software;
  Proc.wait cycles

(* Wake every idle worker but [w]: they may steal what [w] just got. *)
let[@zero_alloc] wake_idle_siblings t (w : worker) =
  for i = 0 to Array.length t.workers - 1 do
    let s = t.workers.(i) in
    if s.idle && s.wid <> w.wid then Gate.signal s.gate
  done

(* --- page fetches --------------------------------------------------------- *)

(* One page READ (Fig. 5: post, park the faulting unithread, resume it
   from the CQE) and its recovery protocol, in one slot of the fetch
   pool. A demand fetch has an owner, the faulting entry, waiting in
   [await_page] until the fetch settles and wakes it; a prefetch has
   none ([nobody]) and no reposts, so a lost one just gives its frame
   back. Three transitions drive it:
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

(* Double the pool. The free list threads through the new slots in
   index order; every old slot is in use, since the list ran dry. *)
let[@cold][@inline never] grow_fetches t =
  let p = t.fetches in
  let cap = Array.length p.pool in
  let ncap = max 64 (2 * cap) in
  if ncap > slot_mask then invalid_arg "System: fetch pool exhausted";
  p.pool <-
    Array.init ncap (fun index ->
        if index < cap then p.pool.(index)
        else
          {
            index;
            next_free = (if index + 1 < ncap then index + 1 else -1);
            page = 0;
            home = 0;
            owner = t.nobody;
            budget = 0;
            live = -1;
            attempt = 0;
            outcome = Pending;
          });
  p.free <- cap

let[@zero_alloc] acquire_fetch t ~page (w : worker) ~owner ~budget =
  let p = t.fetches in
  if p.free < 0 then grow_fetches t;
  let f = p.pool.(p.free) in
  p.free <- f.next_free;
  f.page <- page;
  f.home <- w.wid;
  f.owner <- owner;
  f.budget <- budget;
  f.live <- -1;
  f.attempt <- 0;
  f.outcome <- Pending;
  f

let[@zero_alloc] release_fetch t f =
  f.live <- -1;
  f.owner <- t.nobody;
  f.next_free <- t.fetches.free;
  t.fetches.free <- f.index

let owner_id t f =
  let e = f.owner in
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

(* Only a live attempt settles a fetch, so this runs once per fetch: it
   wakes the owner, or frees a prefetch's slot. *)
let settle t f outcome =
  f.outcome <- outcome;
  let e = f.owner in
  if e == t.nobody then release_fetch t f else e.wake ()

let[@zero_alloc] fetch_cqe t token =
  let f = t.fetches.pool.(token land slot_mask) in
  if f.live = token then begin
    f.live <- -1;
    let page = f.page in
    Pager.complete_fetch t.pager page;
    emit t Trace_event.Rdma_complete ~req:(owner_id t f) ~worker:f.home ~page;
    wake_waiters t page;
    settle t f Fetched
  end

(* Post slot [f]'s current attempt; its trace events name request [req]
   (a prefetch's names the request whose fault triggered it). A full QP
   backs off and reposts from a scheduled event, whoever posted. The
   memory node counts the READ once the QP accepts it. The backoff and
   the arming of a fetch timer allocate closures; they run only when a
   QP is full or a completion can be lost (a faulty fabric or a crashing
   cluster), so they are cold. *)
let[@zero_alloc] rec post_fetch t f ~req =
  let page = f.page and n = f.attempt and bytes = t.app.App.page_size in
  let w = t.workers.(f.home) in
  (* re-route every attempt: a retry after a node death must land on a
     surviving replica, not repost into the dead NIC forever *)
  let node = Cluster.route_read t.cluster ~page in
  let token = (t.fetches.serial lsl slot_bits) lor f.index in
  if Nic.post w.qps.(node) ~opcode:Verbs.Read ~bytes ~cq:w.fetch_cq ~user:token
  then begin
    t.fetches.serial <- t.fetches.serial + 1;
    f.live <- token;
    Memnode.record_read (node_memnode t node) ~bytes;
    emit t Trace_event.Rdma_issue ~req ~worker:w.wid ~page;
    let e = f.owner in
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
  else fetch_backoff t f ~req

and[@cold][@inline never] fetch_backoff t f ~req =
  bump t Counter.Qp_stalls;
  emit t Trace_event.Stall_qp ~req ~worker:f.home ~page:f.page;
  (* no attempt is live while this waits, so nothing can settle the
     fetch meanwhile *)
  Sim.schedule t.sim ~delay:Params.qp_retry_cycles (fun () ->
      post_fetch t f ~req)

and[@cold][@inline never] arm_fetch_timer t token ~delay =
  Sim.schedule t.sim ~delay (fun () -> fetch_timer t token)

(* The attempt behind [token] outlived its deadline: repost within the
   budget, else abandon the fetch. The page reverts to Remote and its
   waiters refetch it themselves. The timer runs only where a completion
   can be lost, so its two trace calls stay out of line: inlined, they
   grew this function by 840 bytes and moved the hot code linked after
   it, and perfbench's array-fault, which never fires a timer, ran 5.7%
   slower (8 of 8 pairs, 2-vCPU Xeon VM). *)
and[@zero_alloc] fetch_timer t token =
  let f = t.fetches.pool.(token land slot_mask) in
  if f.live = token then begin
    f.live <- -1;
    let req = owner_id t f and worker = f.home and page = f.page in
    let n = f.attempt in
    bump t Counter.Fetch_timeouts;
    (emit [@inlined never]) t Trace_event.Fetch_timeout ~req ~worker ~page;
    if n >= f.budget then begin
      Pager.abort_fetch t.pager page;
      wake_waiters t page;
      drop_prefetched t page;
      settle t f Failed
    end
    else begin
      bump t Counter.Fetch_retries;
      let hwm = Counter.index Counter.Retries_hwm in
      t.counts.(hwm) <- max t.counts.(hwm) (n + 1);
      (emit [@inlined never]) t Trace_event.Fetch_retry ~req ~worker ~page;
      (* a parked owner now waits out the repost; a busy-waiting one
         stays in [Busy_wait] through it, since its CPU never stops
         spinning *)
      let e = f.owner in
      if e != t.nobody && not (is_busywait t.cfg) then
        enter t e Phase.Retry_backoff;
      f.attempt <- n + 1;
      post_fetch t f ~req
    end
  end

(* Wait for [page]: the one place a faulting unithread decides how it
   waits. A busy-wait system (DiLOS, Hermit) keeps its CPU and spins; a
   yield system (Adios) hands the worker back to run other unithreads.
   The wait's phase opens first, so what the post does (a failover's
   phase, a full QP's backoff) falls inside it. Then the entry posts its
   own fetch, slot [fetch], whose settle wakes it, or, with [fetch] =
   -1, joins the waiters of the fetch already in flight. Either way
   [e.wake] ends the wait. *)
let await_page t e ~page ~fetch =
  let busy = is_busywait t.cfg in
  enter t e (if busy then Phase.Busy_wait else Phase.Fetch_wire);
  if fetch < 0 then Pager.add_waiter t.pager page e.wake
  else post_fetch t t.fetches.pool.(fetch) ~req:e.req.Request.id;
  if busy then begin
    Proc.suspend t.workers.(e.worker).park;
    enter t e Phase.Pf_software
  end
  else Task.suspend ()

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
          post_fetch t
            (acquire_fetch t ~page:q w ~owner:t.nobody ~budget:0)
            ~req:e.req.Request.id;
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
    emit t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
    emit t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    await_page t e ~page ~fetch:(-1);
    emit t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
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
      emit t Trace_event.Stall_qp ~req:e.req.Request.id ~worker:w.wid ~page;
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
  emit t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
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
    emit t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    emit t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
    ensure_present t e page
  end
  else begin
    Pager.start_fetch t.pager page;
    maybe_prefetch t e w page;
    let f =
      acquire_fetch t ~page w ~owner:e ~budget:t.cfg.Config.fetch_retries
    in
    (* post and wait until the fetch settles (Fig. 5 steps 4-5, 8-10) *)
    await_page t e ~page ~fetch:f.index;
    let outcome = f.outcome in
    release_fetch t f;
    match outcome with
    | Failed ->
      emit t Trace_event.Req_error ~req:rid ~worker:wid ~page;
      emit t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
      raise (Fetch_failed page)
    | Fetched | Pending ->
      (* map the fetched page and return (Fig. 5 step 10) *)
      charge_pf t e Params.map_page_cycles;
      emit t Trace_event.Fault_end ~req:rid ~worker:wid ~page
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
        emit t Trace_event.Preempt ~req:e.req.Request.id ~worker:e.worker
          ~page:Trace_event.none;
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

(* The reply channel's TX completion: the CQE follows the packet's
   departure by the CQE latency. The reply's buffer names its slot. *)
let[@zero_alloc] reply_sent sim slots req =
  Sim.schedule sim ~delay:Params.tx_cqe_latency_cycles
    slots.by_buffer.(req.Request.buffer).wake

(* The CQE of slot [e]'s reply. *)
let[@zero_alloc] tx_cqe t e =
  let rid = e.req.Request.id in
  match t.cfg.Config.tx_mode with
  | Config.Tx_delegated ->
    (* Fig. 6: the TX completion is raised on the dispatcher's CQ; the
       dispatcher recycles the buffer while the worker moves on *)
    emit t Trace_event.Tx_complete ~req:rid ~worker:(-1) ~page:(-1);
    (* lint: allow zero-alloc -- the recycle queue's cell, one per reply; Queue cells are the next allocation to go (ROADMAP item 3) *)
    Queue.push e.req.Request.buffer t.recycle;
    Gate.signal t.dispatch_gate
  | Config.Tx_sync_spin ->
    (* the worker that sent the reply spins on this CQE, parked at
       [Tx_completed]: several can spin at once, each on its own *)
    emit t Trace_event.Tx_complete ~req:rid ~worker:e.worker ~page:(-1);
    Sim.schedule t.sim ~delay:0 t.workers.(e.worker).step
  | Config.Tx_deferred ->
    (* run-to-completion baselines reap TX completions lazily, off the
       worker's critical path *)
    emit t Trace_event.Tx_complete ~req:rid ~worker:(-1) ~page:(-1);
    Buffer_pool.free t.buffers e.req.Request.buffer

(* [e.wake]: the event [e]'s slot waits on has come; what it does
   depends on where the unithread is. Blocked on its CPU in a page or
   frame wait ([Proc.suspend], so its task is still running), it picks
   up where it stopped. Yielded on a page wait, it goes back on its
   worker's ready queue, and the worker is woken to switch it back in;
   under the Steal system the ready queues are steal targets, so idle
   siblings are woken too, and one of them may take the entry before
   its (busy) worker gets to it. Finished, its reply's TX completion
   has arrived. One callback serves both so that a slot makes one
   closure: overloaded points make thousands of slots. *)
let[@zero_alloc] wake t e =
  match Task.state e.task with
  | `Running -> t.workers.(e.worker).resume ()
  | `Suspended ->
    let w = t.workers.(e.worker) in
    (* fetch wire time ends here; from the CQE until a worker (owner or
       thief) polls the entry back in, the request waits in a ready
       queue *)
    enter t e Phase.Steal_wait;
    (* lint: allow zero-alloc -- the ready queue's cell, one per resumed fault; Queue cells are the next allocation to go (ROADMAP item 3) *)
    Queue.push e w.ready;
    Gate.signal w.gate;
    if t.cfg.Config.system = Config.Steal then wake_idle_siblings t w
  | `Finished -> tx_cqe t e
  | `Fresh -> invalid_arg "System.wake: the unithread has not run"

(* --- unithread slots ------------------------------------------------------ *)

let run_handler t ctx e () =
  try t.app.App.handle ctx e.req.Request.spec with
  | Fetch_failed _ -> e.req.Request.errored <- true
  | App.Bad_request _ -> e.req.Request.errored <- true

(* A buffer id's slot, made at the id's first use and reset for every
   request that holds the buffer after. *)
let[@cold][@inline never] make_slot t =
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
      wake = (fun () -> wake t e);
    }
  in
  e.task <- Task.create t.sim (run_handler t (make_ctx t e) e);
  e

let[@cold][@inline never] grow_slots t buffer =
  let old = t.slots.by_buffer in
  let slots = Array.make (max 64 (2 * (buffer + 1))) t.nobody in
  Array.blit old 0 slots 0 (Array.length old);
  t.slots.by_buffer <- slots

(* Buffer [buffer]'s slot, made fresh for [req]. *)
let[@zero_alloc] slot t buffer req =
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

(* Park the worker's loop for [delay] cycles; it picks up at [stage]. *)
let[@zero_alloc] pause t (w : worker) stage delay =
  w.at <- stage;
  Sim.schedule t.sim ~delay w.step

let requeue t e =
  enter t e Phase.Queue;
  (* lint: allow zero-alloc -- the central queue's cell, one per preemption; Queue cells are the next allocation to go (ROADMAP item 3) *)
  Queue.push e t.pending;
  Gate.signal t.dispatch_gate

(* The sibling queue a steal at [stage] takes from. *)
let steal_queue stage (v : worker) =
  match stage with Stole_ready -> v.ready | _ -> v.local

(* The loop a worker runs between its events: take the next entry, pay
   the switch, run the entry's unithread, reply, repeat. Each function
   below ends by pausing the worker, handing it to a unithread, parking
   it at its gate, or calling the next one. *)
let[@zero_alloc] rec worker_loop t (w : worker) =
  if not (Queue.is_empty w.ready) then begin
    w.idle <- false;
    resume_ready t w (Queue.pop w.ready)
  end
  else if w.assigned != t.nobody then begin
    let e = w.assigned in
    w.idle <- false;
    w.assigned <- t.nobody;
    run_entry t w e
  end
  else if not (Queue.is_empty w.local) then begin
    let e = Queue.pop w.local in
    w.idle <- false;
    emit t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid ~page:(-1);
    run_entry t w e
  end
  else if t.cfg.Config.dispatch = Config.Work_stealing then
    try_steal t w Stole_local
  else steal_resumed t w

(* The Steal system's extra axis: blocked-then-resumed requests from
   the sibling ready queues, re-homed so their later faults are issued
   on the thief's QPs and their later resumptions land on the thief. *)
and[@zero_alloc] steal_resumed t w =
  if t.cfg.Config.system = Config.Steal then try_steal t w Stole_ready
  else go_idle t w

and[@zero_alloc] go_idle t w =
  w.idle <- true;
  Gate.signal t.dispatch_gate;
  acct_cpu t ~cpu:w.wid Acct.Idle;
  w.at <- Idle;
  Gate.await w.gate w.step

(* Work stealing: take the head of the longest sibling queue of the
   kind [stage] names (FCFS order within the victim), once the scan's
   cost is paid; the victim may drain it meanwhile. *)
and[@zero_alloc] try_steal t w stage =
  let victim = ref (-1) and best = ref 0 in
  for i = 0 to Array.length t.workers - 1 do
    let v = t.workers.(i) in
    let len = Queue.length (steal_queue stage v) in
    if v.wid <> w.wid && len > !best then begin
      victim := i;
      best := len
    end
  done;
  if !victim < 0 then steal_failed t w stage
  else begin
    acct_cpu t ~cpu:w.wid Acct.Dispatch;
    w.victim <- !victim;
    pause t w stage Params.steal_cycles
  end

and[@zero_alloc] stolen t w stage =
  let q = steal_queue stage t.workers.(w.victim) in
  if Queue.is_empty q then steal_failed t w stage
  else begin
    let e = Queue.pop q in
    bump t Counter.Steals;
    w.idle <- false;
    match stage with
    | Stole_ready ->
      e.worker <- w.wid;
      resume_ready t w e
    | _ ->
      emit t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid
        ~page:(-1);
      run_entry t w e
  end

(* Nothing stolen from the local queues: try the ready ones next. *)
and[@zero_alloc] steal_failed t w stage =
  match stage with Stole_ready -> go_idle t w | _ -> steal_resumed t w

(* poll + switch-in is one wait; attribute it wholly to CQ polling
   rather than splitting it (an extra event could shift tie-breaks) *)
and[@zero_alloc] resume_ready t w e =
  enter t e Phase.Cq_poll;
  w.current <- e;
  pause t w Polled (Params.poll_cycles + Params.ctx_switch_cycles)

(* A preempted unithread re-dispatched switches back in; a new one is
   created first. *)
and[@zero_alloc] run_entry t w e =
  e.worker <- w.wid;
  w.current <- e;
  enter t e Phase.Ctx_switch;
  if e.started then pause t w Switched Params.ctx_switch_cycles
  else
    pause t w Created
      (Params.unithread_create_cycles + Params.ctx_switch_cycles)

and[@zero_alloc] start_quantum t w e =
  e.quantum_start <- Sim.now t.sim;
  e.started <- true;
  run_task t w e

and[@zero_alloc] run_task t w e =
  emit t Trace_event.Run_begin ~req:e.req.Request.id ~worker:e.worker
    ~page:(-1);
  Task.run e.task w.returned

(* [current]'s unithread finished or yielded. *)
and[@zero_alloc] task_returned t w outcome =
  let e = w.current in
  match outcome with
  | Task.Finished ->
    (* an errored handler still replies — with an error status — so the
       buffer recycles and request conservation holds under faults *)
    if e.req.Request.errored then bump t Counter.Errored
    else bump t Counter.Handled;
    (* Tx runs to the reply's client RX stamp: it covers the post, the
       wire, and (under Tx_sync_spin) is split around the CQE spin *)
    enter t e Phase.Tx;
    pause t w Reply_posted Params.reply_post_cycles
  | Task.Suspended ->
    if e.preempted then begin
      e.preempted <- false;
      requeue t e
    end;
    (* else: fault yield; the fetch completion re-enqueues the entry *)
    run_end t w e

and[@zero_alloc] reply_posted t w e =
  let req = e.req in
  let bytes = req.Request.spec.Request.reply_bytes in
  emit t Trace_event.Tx_submit ~req:req.Request.id ~worker:e.worker ~page:(-1);
  match t.cfg.Config.tx_mode with
  | Config.Tx_delegated | Config.Tx_deferred ->
    (* the worker moves on; the slot's TX completion recycles the
       buffer *)
    Raw_eth.send t.reply_channel ~bytes req;
    run_end t w e
  | Config.Tx_sync_spin ->
    (* naive design: the worker busy-waits for the CQE, which
       schedules its [step] *)
    enter t e Phase.Busy_wait;
    Raw_eth.send t.reply_channel ~bytes req;
    w.at <- Tx_completed

and[@zero_alloc] run_end t w e =
  emit t Trace_event.Run_end ~req:e.req.Request.id ~worker:e.worker
    ~page:(-1);
  worker_loop t w

let[@zero_alloc] worker_step t w =
  let e = w.current in
  match w.at with
  | Idle -> worker_loop t w
  | Polled -> run_task t w e
  | Switched -> start_quantum t w e
  | Created -> (
    match t.cfg.Config.system with
    | Config.Hermit ->
      enter t e Phase.App_compute;
      pause t w Kernel_entered Params.hermit_request_extra_cycles
    | Config.Dilos | Config.Dilos_p | Config.Adios | Config.Steal ->
      start_quantum t w e)
  | Kernel_entered ->
    (* lint: allow zero-alloc -- [Rng.uniform] is inlined, so its float stays unboxed *)
    if Rng.uniform t.rng < Params.hermit_jitter_probability then begin
      let span =
        Params.hermit_jitter_max_cycles - Params.hermit_jitter_min_cycles
      in
      pause t w Switched (Params.hermit_jitter_min_cycles + Rng.int t.rng span)
    end
    else start_quantum t w e
  | (Stole_local | Stole_ready) as stage -> stolen t w stage
  | Reply_posted -> reply_posted t w e
  | Tx_completed ->
    enter t e Phase.Tx;
    Buffer_pool.free t.buffers e.req.Request.buffer;
    run_end t w e

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
let[@zero_alloc] dispatch_order policy ~rr_cursor ~load ~order =
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
let[@zero_alloc] idle_order t =
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

let[@zero_alloc] assign t (w : worker) e =
  emit t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid ~page:(-1);
  t.rr_cursor <- next_worker t w.wid;
  w.assigned <- e;
  w.idle <- false;
  Gate.signal w.gate

(* The dispatcher's loop: park at its gate; once woken, recycle the
   delegated TX completions (batched, cheap), then dispatch. *)
let[@zero_alloc] rec dispatcher_loop t =
  acct_cpu t ~cpu:(Array.length t.workers) Acct.Idle;
  t.disp.stage <- Woken;
  Gate.await t.dispatch_gate t.disp.advance

and[@zero_alloc] recycle t =
  let d = t.disp in
  if Queue.is_empty t.recycle then
    match t.cfg.Config.dispatch with
    | Config.Pf_aware | Config.Round_robin -> dispatch_round t
    | Config.Partitioned | Config.Work_stealing -> spray t
  else begin
    d.buffer <- Queue.pop t.recycle;
    d.stage <- Recycled;
    Sim.schedule t.sim ~delay:Params.recycle_cycles d.advance
  end

(* Single queue: dispatch to idle workers (Algorithm 1 or RR), round
   after round while requests wait and some worker is a candidate. *)
and[@zero_alloc] dispatch_round t =
  if Queue.is_empty t.pending then dispatcher_loop t
  else begin
    let candidates = idle_order t in
    if candidates = 0 then dispatcher_loop t
    else begin
      t.disp.candidates <- candidates;
      t.disp.cursor <- 0;
      dispatch_next t
    end
  end

(* The round's next candidate still idle and unassigned gets the head
   request, after the dispatch cost. *)
and[@zero_alloc] dispatch_next t =
  let d = t.disp in
  let posted = ref false in
  while (not !posted) && d.cursor < d.candidates do
    let w = t.workers.(t.order.(d.cursor)) in
    d.cursor <- d.cursor + 1;
    if
      (not (Queue.is_empty t.pending)) && w.idle && w.assigned == t.nobody
    then begin
      posted := true;
      d.entry <- Queue.pop t.pending;
      d.target <- w.wid;
      d.stage <- Assigned;
      Sim.schedule t.sim ~delay:Params.dispatch_cycles d.advance
    end
  done;
  if not !posted then dispatch_round t

(* d-FCFS: spray arrivals over per-worker queues with no regard for
   their occupancy; rebalancing, if any, is the workers' problem. *)
and[@zero_alloc] spray t =
  let d = t.disp in
  if Queue.is_empty t.pending then dispatcher_loop t
  else begin
    d.entry <- Queue.pop t.pending;
    d.stage <- Sprayed;
    Sim.schedule t.sim ~delay:Params.dispatch_cycles d.advance
  end

let[@zero_alloc] dispatcher_step t =
  let d = t.disp in
  match d.stage with
  | Woken ->
    acct_cpu t ~cpu:(Array.length t.workers) Acct.Dispatch;
    recycle t
  | Recycled ->
    Buffer_pool.free t.buffers d.buffer;
    recycle t
  | Assigned ->
    assign t t.workers.(d.target) d.entry;
    dispatch_next t
  | Sprayed ->
    let w = t.workers.(t.rr_cursor) in
    t.rr_cursor <- next_worker t t.rr_cursor;
    (* lint: allow zero-alloc -- the local queue's cell, one per arrival under d-FCFS; Queue cells are the next allocation to go (ROADMAP item 3) *)
    Queue.push d.entry w.local;
    Gate.signal w.gate;
    if t.cfg.Config.dispatch = Config.Work_stealing then
      wake_idle_siblings t w;
    spray t

(* --- admission ----------------------------------------------------------- *)

let receive t ~rx_at req =
  req.Request.rx_at <- rx_at;
  if Queue.length t.pending >= t.cfg.Config.central_queue_capacity then begin
    bump t Counter.Drops_queue;
    emit t Trace_event.Req_drop_queue ~req:req.Request.id
      ~worker:Trace_event.none ~page:Trace_event.none
  end
  else
    let buffer = Buffer_pool.alloc t.buffers in
    if buffer < 0 then begin
      bump t Counter.Drops_buffer;
      emit t Trace_event.Stall_buffer ~req:req.Request.id
        ~worker:Trace_event.none ~page:Trace_event.none;
      emit t Trace_event.Req_drop_buffer ~req:req.Request.id
        ~worker:Trace_event.none ~page:Trace_event.none
    end
    else begin
      req.Request.buffer <- buffer;
      bump t Counter.Admitted;
      emit t Trace_event.Req_enqueue ~req:req.Request.id
        ~worker:Trace_event.none ~page:Trace_event.none;
      (* profiled ⟺ admitted: drops never open attribution state *)
      (match t.prof with
      | Some p ->
        req.Request.prof <-
          Some
            (Profiler.attach p ~id:req.Request.id ~tx_at:req.Request.tx_at
               ~now:(Sim.now t.sim))
      | None -> ());
      Queue.push (slot t buffer req) t.pending;
      Gate.signal t.dispatch_gate
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

(* Post one write-back WRITE, waiting out a full QP on the reclaimer,
   then go on with [k]. The WR carries the page, which the reclaim CQ's
   drain traces. *)
let rec post_writeback t ~node ~page k =
  let actor = Trace_event.reclaimer_actor in
  if
    Nic.post t.reclaim_qps.(node) ~opcode:Verbs.Write
      ~bytes:t.app.App.page_size ~cq:t.reclaim_cq ~user:page
  then begin
    emit t Trace_event.Rdma_issue ~req:actor ~worker:actor ~page;
    k ()
  end
  else begin
    bump t Counter.Writeback_stalls;
    emit t Trace_event.Stall_qp ~req:actor ~worker:actor ~page;
    Sim.schedule t.sim ~delay:Params.qp_retry_cycles (fun () ->
        post_writeback t ~node ~page k)
  end

(* Write [page] back to each of [nodes] in turn, then go on with [k]. *)
let rec write_back t ~page nodes k =
  match nodes with
  | [] -> k ()
  | node :: rest ->
    Memnode.record_write (node_memnode t node) ~bytes:t.app.App.page_size;
    post_writeback t ~node ~page (fun () -> write_back t ~page rest k)

let evict_page t ~page ~dirty k =
  drop_prefetched t page;
  if dirty then begin
    (* write the page back to every alive replica before dropping it *)
    match Cluster.write_targets t.cluster ~page with
    | [] ->
      (* every replica is dead; the copy is gone until re-replication
         (or forever under R = 1) — count it, don't wedge the reclaimer *)
      Cluster.note_lost_write t.cluster;
      k ()
    | targets -> write_back t ~page targets k
  end
  else k ()

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
      task = Task.create sim ignore;
      detector = Prefetcher.Stride_detector.create ();
      started = false;
      worker = -1;
      quantum_start = 0;
      preempted = false;
      wake = ignore;
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
        let rec w =
          {
            wid;
            qps;
            fetch_cq = Verbs.Cq.create ();
            gate = Gate.create sim;
            ready = Queue.create ();
            local = Queue.create ();
            assigned = nobody;
            idle = false;
            at = Idle;
            current = nobody;
            victim = 0;
            step = ignore;
            returned = ignore;
            park = (fun resume -> w.resume <- resume);
            resume = ignore;
          }
        in
        w)
  in
  let reclaim_qps =
    Array.map
      (fun nd -> Nic.create_qp nd.Cluster.nic ~depth:cfg.Config.qp_depth)
      cluster_nodes
  in
  let reclaim_cq = Verbs.Cq.create () in
  (* The reclaimer's eviction hook needs [t]: it goes through [evict],
     set once [t] exists, and only the reclaimer's own events, all
     after [create] returns, call it. Nothing below schedules an event
     before the dispatcher's and the workers' first ones, so the first
     poll keeps its place in the event order. *)
  let evict = ref (fun ~page:_ ~dirty:_ k -> k ()) in
  let reclaimer =
    Reclaimer.start ~trace sim pager cfg.Config.reclaim
      cfg.Config.reclaim_config
      ~evict_page:(fun ~page ~dirty k -> !evict ~page ~dirty k)
  in
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
      dispatch_gate = Gate.create sim;
      disp =
        {
          stage = Woken;
          buffer = 0;
          entry = nobody;
          target = 0;
          cursor = 0;
          candidates = 0;
          advance = ignore;
        };
      recycle = Queue.create ();
      buffers = Buffer_pool.create ~count:cfg.Config.buffer_count
          Buffer_pool.unithread_layout;
      slots;
      prefetched = Bytes.make app.App.pages '\000';
      prefetch_stats = Prefetcher.make_stats ();
      rr_cursor = 0;
      load = Array.make cfg.Config.workers 0;
      order = Array.make cfg.Config.workers 0;
      fetches = { pool = [||]; free = -1; serial = 0 };
      nobody;
      rng;
      reclaimer;
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
    emit t Trace_event.Rdma_complete ~req:actor ~worker:actor
      ~page:c.Verbs.user
  in
  Verbs.Cq.set_notify reclaim_cq (fun () ->
      Verbs.Cq.drain reclaim_cq on_writeback);
  prefill_pages t;
  evict := (fun ~page ~dirty k -> evict_page t ~page ~dirty k);
  (* each actor's loop starts from one event at the current time *)
  t.disp.advance <- (fun () -> dispatcher_step t);
  Sim.schedule sim ~delay:0 (fun () -> dispatcher_loop t);
  Array.iter
    (fun w ->
      w.step <- (fun () -> worker_step t w);
      w.returned <- (fun outcome -> task_returned t w outcome);
      Sim.schedule sim ~delay:0 (fun () -> worker_loop t w))
    workers;
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
  Reclaimer.register_metrics t.reclaimer reg ~labels;
  Acct.register_metrics t.acct reg ~labels;
  (* cluster series only when the topology is non-trivial, so the
     single-node metrics export stays byte-identical *)
  if Cluster.enabled t.cfg.Config.cluster then
    Cluster.register_metrics t.cluster reg ~labels
