module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Rng = Adios_engine.Rng
module Memnode = Adios_rdma.Memnode
module Link = Adios_rdma.Link
module Nic = Adios_rdma.Nic
module Verbs = Adios_rdma.Verbs
module Sink = Adios_trace.Sink
module Event = Adios_trace.Event
module Registry = Adios_obs.Registry

type config = {
  nodes : int;
  replication : int;
  crashes : int;
  crash_at_us : float;
}

let default = { nodes = 1; replication = 1; crashes = 0; crash_at_us = 1000. }

let normalize c =
  let nodes = max 1 c.nodes in
  {
    c with
    nodes;
    replication = min nodes (max 1 c.replication);
    crashes = max 0 c.crashes;
  }

let enabled c =
  let c = normalize c in
  c.nodes > 1 || c.crashes > 0

type node = {
  id : int;
  memnode : Memnode.t;
  rx_link : Link.t;
  tx_link : Link.t;
  nic : int Nic.t;
  mutable alive : bool;
  mutable repl_qp : int Nic.qp option;
}

type t = {
  sim : Sim.t;
  cfg : config;
  node_tab : node array;
  pages : int;
  page_size : int;
  qp_depth : int;
  gap : int; (* cycles between background re-replication steps *)
  rng : Rng.t; (* drawn only inside scheduled crash callbacks *)
  trace : Sink.t;
  repl_cq : int Verbs.Cq.t;
  legs : (int, unit -> unit) Hashtbl.t;
      (* token -> what a re-replication leg does when its CQE lands *)
  mutable next_leg : int;
  override : (int, int list) Hashtbl.t; (* page -> repaired replica list *)
  mutable nodes_failed : int;
  mutable failovers : int;
  mutable rereplicated : int;
  mutable lost_writes : int;
  mutable dead_reads : int;
  mutable backlog : int;
}

(* --- placement ------------------------------------------------------------ *)

(* Striped: page [p]'s primary is [p mod nodes], its replicas the
   [replication - 1] nodes after it. Every fetch routes through here;
   on the one-node fabric that most runs use, a compare stands in for
   the division. *)
let primary_of cfg ~page = if cfg.nodes = 1 then 0 else page mod cfg.nodes

let default_replicas cfg ~page =
  let p = primary_of cfg ~page in
  List.init cfg.replication (fun i -> (p + i) mod cfg.nodes)

(* Node [node] holds page [page] iff it is one of the [replication]
   nodes from the page's primary on. *)
let holds cfg ~node ~page =
  (node - primary_of cfg ~page + cfg.nodes) mod cfg.nodes < cfg.replication

(* Whether a node holds a page depends only on the page's residue mod
   [nodes], so count each residue class of [0, pages) once. *)
let hosted_pages cfg ~pages ~node =
  let hosted = ref 0 in
  for r = 0 to cfg.nodes - 1 do
    if holds cfg ~node ~page:r then
      hosted :=
        !hosted + (pages / cfg.nodes)
        + if r < pages mod cfg.nodes then 1 else 0
  done;
  !hosted

(* --- construction --------------------------------------------------------- *)

(* Disjoint WR-id ranges per NIC keep WQE ids unique in a shared trace. *)
let wr_id_stride = 0x2000_0000

let create ?(trace = Sink.null) ?fault sim cfg ~pages ~page_size ~gbps
    ~wire_overhead ~wqe_overhead_cycles ~base_latency_cycles ~qp_depth
    ~throttle ~rereplicate_gap_cycles ~seed =
  let cfg = normalize cfg in
  let node_tab =
    Array.init cfg.nodes (fun id ->
        let memnode = Memnode.create ~capacity_bytes:(2 * pages * page_size) in
        let rx_link = Link.create sim ~gbps ~wire_overhead () in
        let tx_link = Link.create sim ~gbps ~wire_overhead () in
        if throttle > 0. then begin
          (* fail-slow path: a throttled node stretches every
             fetch-direction serialization (deterministic, replay-safe) *)
          Memnode.set_throttle memnode throttle;
          Link.set_perturb rx_link
            (Some (fun base -> Memnode.throttle_extra memnode ~cycles:base))
        end;
        let nic =
          Nic.create ~trace ?fault ~wr_id_base:(id * wr_id_stride) sim
            ~rx_link ~tx_link ~wqe_overhead_cycles ~base_latency_cycles ()
        in
        { id; memnode; rx_link; tx_link; nic; alive = true; repl_qp = None })
  in
  (* each node registers the bytes of the pages it hosts *)
  Array.iter
    (fun nd ->
      let hosted = hosted_pages cfg ~pages ~node:nd.id in
      if hosted > 0 then
        ignore (Memnode.register_exn nd.memnode ~bytes:(hosted * page_size)))
    node_tab;
  let t =
    {
      sim;
      cfg;
      node_tab;
      pages;
      page_size;
      qp_depth;
      gap = rereplicate_gap_cycles;
      rng = Rng.create (seed + 0x5eed);
      trace;
      repl_cq = Verbs.Cq.create ();
      legs = Hashtbl.create 16;
      next_leg = 0;
      override = Hashtbl.create 64;
      nodes_failed = 0;
      failovers = 0;
      rereplicated = 0;
      lost_writes = 0;
      dead_reads = 0;
      backlog = 0;
    }
  in
  Verbs.Cq.set_notify t.repl_cq (fun () ->
      Verbs.Cq.drain t.repl_cq (fun (c : int Verbs.completion) ->
          let leg = Hashtbl.find t.legs c.user in
          Hashtbl.remove t.legs c.user;
          leg ()));
  t

let config t = t.cfg
let nodes t = t.node_tab
let node_count t = Array.length t.node_tab
let node_alive t id = t.node_tab.(id).alive

(* --- routing -------------------------------------------------------------- *)

let primary t ~page = primary_of t.cfg ~page

let replicas t ~page =
  match Hashtbl.find_opt t.override page with
  | Some l -> l
  | None -> default_replicas t.cfg ~page

(* Re-replication rewrote this page's replica list. Empty until a node
   has crashed, so the healthy path pays one length test. *)
let overridden t ~page =
  Hashtbl.length t.override > 0 && Hashtbl.mem t.override page

(* The first alive node of a rewritten replica list; its head when every
   replica is dead. *)
let rec first_alive_of t head = function
  | [] -> head
  | id :: rest ->
    if t.node_tab.(id).alive then id else first_alive_of t head rest

(* The first alive node among placement replicas [i ..] of a page whose
   primary is [p]; [p] when every replica is dead. [p] and [i] both lie
   in [0, nodes), so one compare wraps their sum. *)
let rec first_alive t ~p i =
  if i = t.cfg.replication then p
  else begin
    let id = p + i in
    let id = if id >= t.cfg.nodes then id - t.cfg.nodes else id in
    if t.node_tab.(id).alive then id else first_alive t ~p (i + 1)
  end

(* With every replica dead the read still goes to the list's head, and
   the timeout surfaces it. *)
let route_read t ~page =
  if overridden t ~page then
    match Hashtbl.find t.override page with
    | head :: _ as reps -> first_alive_of t head reps
    | [] -> 0
  else first_alive t ~p:(primary t ~page) 0

let current_primary t ~page =
  if overridden t ~page then
    match Hashtbl.find t.override page with head :: _ -> head | [] -> 0
  else primary t ~page

let write_targets t ~page =
  List.filter (fun id -> t.node_tab.(id).alive) (replicas t ~page)

let total_rx_bytes t =
  Array.fold_left
    (fun acc nd -> acc + Link.bytes_carried nd.rx_link)
    0 t.node_tab

(* --- counters ------------------------------------------------------------- *)

let note_failover t = t.failovers <- t.failovers + 1
let note_dead_read t = t.dead_reads <- t.dead_reads + 1
let note_lost_write t = t.lost_writes <- t.lost_writes + 1
let nodes_failed t = t.nodes_failed
let failovers t = t.failovers
let rereplicated t = t.rereplicated
let lost_writes t = t.lost_writes
let dead_reads t = t.dead_reads
let rereplication_backlog t = t.backlog

(* --- failure handling ----------------------------------------------------- *)

let ev ?(req = Event.none) ?(worker = Event.none) ?(page = Event.none) t kind =
  Sink.emit t.trace ~ts:(Sim.now t.sim) ~kind ~req ~worker ~page

let repl_qp t nd =
  match nd.repl_qp with
  | Some qp -> qp
  | None ->
    let qp = Nic.create_qp nd.nic ~depth:t.qp_depth in
    nd.repl_qp <- Some qp;
    qp

(* The copy target for a page that lost a replica: scan alive nodes not
   already holding the page, starting past its primary, and take the
   first with registration room (a full node returns [Error] from the
   typed register — skip it rather than crash). *)
let pick_target t ~reps ~prim =
  let n = Array.length t.node_tab in
  let rec scan k =
    if k >= n then None
    else begin
      let cand = t.node_tab.((prim + k) mod n) in
      if
        cand.alive
        && (not (List.mem cand.id reps))
        && Result.is_ok (Memnode.register cand.memnode ~bytes:t.page_size)
      then Some cand
      else scan (k + 1)
    end
  in
  scan 1

(* Post one re-replication leg on [nd]'s repair QP, retrying every
   [gap] cycles while the QP is full. Its WR carries a token into
   [legs], which the CQ drain turns back into [on_cqe]. *)
let rec post_leg t nd ~opcode ~page on_cqe =
  let token = t.next_leg in
  if
    Nic.post (repl_qp t nd) ~opcode ~bytes:t.page_size ~user:token
      ~cq:t.repl_cq
  then begin
    t.next_leg <- token + 1;
    Hashtbl.replace t.legs token on_cqe;
    ev t Event.Rdma_issue ~page
  end
  else
    Sim.schedule t.sim ~delay:t.gap (fun () ->
        post_leg t nd ~opcode ~page on_cqe)

(* Restore one page's replication factor: READ it from a surviving
   replica, WRITE it onto the chosen spare, then swap the dead node out
   of the page's replica list. Both legs go through a real QP and the
   shared links, so repair traffic competes with demand fetches for
   bandwidth; each leg emits its Rdma_issue/Rdma_complete pair so the
   trace checker's WQE accounting stays exact. *)
let copy_page t ~victim page =
  let done_ () = t.backlog <- t.backlog - 1 in
  let reps = replicas t ~page in
  if not (List.mem victim.id reps) then done_ ()
  else begin
    match List.find_opt (fun id -> t.node_tab.(id).alive) reps with
    | None -> done_ () (* every copy died: the page is unrecoverable *)
    | Some src_id -> (
      let prim = match reps with p :: _ -> p | [] -> 0 in
      match pick_target t ~reps ~prim with
      | None -> done_ () (* no spare with room: stay degraded *)
      | Some tgt ->
        let src = t.node_tab.(src_id) in
        let bytes = t.page_size in
        let finish () =
          ev t Event.Rdma_complete ~page;
          Hashtbl.replace t.override page
            (List.map (fun id -> if id = victim.id then tgt.id else id) reps);
          t.rereplicated <- t.rereplicated + 1;
          done_ ();
          ev t Event.Rereplicated ~page
        in
        let read_done () =
          ev t Event.Rdma_complete ~page;
          Memnode.record_write tgt.memnode ~bytes;
          post_leg t tgt ~opcode:Verbs.Write ~page finish
        in
        Memnode.record_read src.memnode ~bytes;
        post_leg t src ~opcode:Verbs.Read ~page read_done)
  end

let start_rereplication t ~victim =
  let affected = ref [] in
  for page = t.pages - 1 downto 0 do
    if List.mem victim.id (replicas t ~page) then affected := page :: !affected
  done;
  match !affected with
  | [] -> ()
  | pages ->
    t.backlog <- t.backlog + List.length pages;
    let rec step = function
      | [] -> ()
      | page :: rest ->
        copy_page t ~victim page;
        (match rest with
        | [] -> ()
        | _ :: _ -> Sim.schedule t.sim ~delay:t.gap (fun () -> step rest))
    in
    Sim.schedule t.sim ~delay:t.gap (fun () -> step pages)

let alive_list t =
  Array.fold_left
    (fun acc nd -> if nd.alive then nd :: acc else acc)
    [] t.node_tab
  |> List.rev

let crash_one t =
  match alive_list t with
  | [] | [ _ ] -> () (* never kill the last node *)
  | alive ->
    let victim = List.nth alive (Rng.int t.rng (List.length alive)) in
    victim.alive <- false;
    Nic.fail victim.nic;
    t.nodes_failed <- t.nodes_failed + 1;
    ev t Event.Node_failed ~page:victim.id;
    start_rereplication t ~victim

let start t =
  for i = 0 to t.cfg.crashes - 1 do
    Sim.schedule t.sim
      ~delay:(Clock.of_us (t.cfg.crash_at_us *. float_of_int (i + 1)))
      (fun () -> crash_one t)
  done

(* --- metrics -------------------------------------------------------------- *)

let register_metrics t reg ~labels =
  let counter name help read = Registry.counter reg ~name ~help ~labels read in
  let gauge name help read = Registry.gauge reg ~name ~help ~labels read in
  counter "adios_cluster_nodes_failed_total"
    "Memory nodes killed by the crash schedule" (fun () -> t.nodes_failed);
  counter "adios_cluster_failovers_total"
    "Fetches rerouted to a surviving replica" (fun () -> t.failovers);
  counter "adios_cluster_rereplicated_total"
    "Pages whose replication factor was restored" (fun () -> t.rereplicated);
  counter "adios_cluster_lost_writes_total"
    "Write-backs dropped: every replica dead" (fun () -> t.lost_writes);
  counter "adios_cluster_dead_reads_total"
    "Fetches posted with every replica dead" (fun () -> t.dead_reads);
  gauge "adios_cluster_rereplication_backlog"
    "Pages still awaiting background re-replication" (fun () ->
      float_of_int t.backlog);
  Array.iter
    (fun nd ->
      let labels = ("node", string_of_int nd.id) :: labels in
      Registry.gauge reg ~name:"adios_cluster_node_alive"
        ~help:"1 while the node serves traffic, 0 after its crash" ~labels
        (fun () -> if nd.alive then 1. else 0.);
      Registry.counter reg ~name:"adios_cluster_node_reads_total"
        ~help:"READs served by this node" ~labels (fun () ->
          Memnode.reads nd.memnode);
      Registry.counter reg ~name:"adios_cluster_node_writes_total"
        ~help:"WRITEs absorbed by this node" ~labels (fun () ->
          Memnode.writes nd.memnode);
      Registry.counter reg ~name:"adios_cluster_node_bytes_served_total"
        ~help:"Payload bytes served by this node" ~labels (fun () ->
          Memnode.bytes_served nd.memnode);
      Nic.register_metrics nd.nic reg ~labels)
    t.node_tab
