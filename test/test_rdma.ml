module Sim = Adios_engine.Sim
module Clock = Adios_engine.Clock
module Link = Adios_rdma.Link
module Verbs = Adios_rdma.Verbs
module Nic = Adios_rdma.Nic
module Raw_eth = Adios_rdma.Raw_eth
module Memnode = Adios_rdma.Memnode
module Injector = Adios_fault.Injector

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- link ------------------------------------------------------------- *)

let test_link_serialize () =
  let sim = Sim.create () in
  let link = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  (* 100 Gb/s = 6.25 B/cycle at 2 GHz; 4096 B ~ 656 cycles *)
  let c = Link.serialize_cycles link ~bytes:4096 in
  check_bool "serialization near 656" true (abs (c - 656) <= 2);
  let link27 = Link.create sim ~gbps:100. ~wire_overhead:0.27 () in
  let c27 = Link.serialize_cycles link27 ~bytes:4096 in
  check_bool "overhead scales" true (abs (c27 - 833) <= 3)

let test_link_utilization () =
  let sim = Sim.create () in
  let link = Link.create sim ~gbps:100. () in
  let snap = Link.snapshot link in
  Sim.schedule sim ~delay:0 (fun () ->
      Link.occupy link ~cycles:100 ~bytes:625);
  Sim.schedule sim ~delay:400 (fun () -> ());
  Sim.run sim;
  let u = Link.utilization_since link ~snapshot:snap in
  check (Alcotest.float 1e-6) "busy 1/4" 0.25 u;
  check_int "bytes" 625 (Link.bytes_carried link)

(* --- nic -------------------------------------------------------------- *)

let make_nic sim =
  let rx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let tx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  ( Nic.create sim ~rx_link:rx ~tx_link:tx ~wqe_overhead_cycles:100
      ~base_latency_cycles:1000 (),
    rx,
    tx )

let test_nic_read_completion_timing () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp = Nic.create_qp nic ~depth:16 in
  let cq = Verbs.Cq.create () in
  let done_at = ref 0 in
  let ok =
    Nic.post qp ~opcode:Verbs.Read ~bytes:4096 ~cq
      ~user:(fun () -> done_at := Sim.now sim)
  in
  check_bool "posted" true ok;
  check_int "outstanding" 1 (Nic.outstanding qp);
  Sim.run sim;
  (* completion enqueued but user callback fires on poll *)
  check_int "cq depth" 1 (Verbs.Cq.depth cq);
  List.iter
    (fun (c : (unit -> unit) Verbs.completion) -> c.Verbs.user ())
    (Verbs.Cq.poll cq ~max:10);
  (* wqe 100 + serialize 656 + latency 1000 = 1756 *)
  check_bool "completion time" true (abs (!done_at - 1756) <= 3);
  check_int "outstanding drained" 0 (Nic.outstanding qp);
  check_int "posted counter" 1 (Nic.posted nic);
  check_int "completed counter" 1 (Nic.completed nic);
  check_int "read bytes" 4096 (Nic.read_bytes nic)

(* Admission refuses at [depth], not at the ring's power-of-two
   capacity: depths 3 and 5 sit in rings of 4 and 8 slots. *)
let test_nic_qp_depth_enforced () =
  List.iter
    (fun depth ->
      let sim = Sim.create () in
      let nic, _, _ = make_nic sim in
      let qp = Nic.create_qp nic ~depth in
      let cq = Verbs.Cq.create () in
      let post () =
        Nic.post qp ~opcode:Verbs.Read ~bytes:64 ~cq ~user:(fun () -> ())
      in
      for i = 1 to depth do
        check_bool (Printf.sprintf "depth %d: post %d" depth i) true (post ())
      done;
      check_bool
        (Printf.sprintf "depth %d: post %d rejected" depth (depth + 1))
        false (post ());
      Sim.run sim;
      ignore (Verbs.Cq.poll cq ~max:10);
      check_bool
        (Printf.sprintf "depth %d: accepted after drain" depth)
        true (post ()))
    [ 2; 3; 5 ]

let test_nic_per_qp_fifo () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp = Nic.create_qp nic ~depth:16 in
  let cq = Verbs.Cq.create () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore
      (Nic.post qp ~opcode:Verbs.Read ~bytes:64 ~cq
         ~user:(fun () -> order := i :: !order))
  done;
  Sim.run sim;
  List.iter (fun (c : _ Verbs.completion) -> c.Verbs.user ()) (Verbs.Cq.poll cq ~max:10);
  check (Alcotest.list Alcotest.int) "in order" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_nic_rr_across_qps () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp_a = Nic.create_qp nic ~depth:16 in
  let qp_b = Nic.create_qp nic ~depth:16 in
  let cq = Verbs.Cq.create () in
  let order = ref [] in
  (* backlog on A, one on B: B must not wait behind all of A *)
  Sim.schedule sim ~delay:0 (fun () ->
      for i = 1 to 3 do
        ignore
          (Nic.post qp_a ~opcode:Verbs.Read ~bytes:4096 ~cq
             ~user:(fun () -> order := ("a", i) :: !order))
      done;
      ignore
        (Nic.post qp_b ~opcode:Verbs.Read ~bytes:4096 ~cq
           ~user:(fun () -> order := ("b", 1) :: !order)));
  Sim.run sim;
  List.iter (fun (c : _ Verbs.completion) -> c.Verbs.user ()) (Verbs.Cq.poll cq ~max:10);
  let seq = List.rev !order in
  (* round-robin: a1 then b1 (not behind a2/a3) *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "rr order"
    [ ("a", 1); ("b", 1); ("a", 2); ("a", 3) ]
    seq

let test_nic_directions_independent () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp_r = Nic.create_qp nic ~depth:16 in
  let qp_w = Nic.create_qp nic ~depth:16 in
  let cq = Verbs.Cq.create () in
  let read_done = ref 0 and write_done = ref 0 in
  Sim.schedule sim ~delay:0 (fun () ->
      ignore
        (Nic.post qp_r ~opcode:Verbs.Read ~bytes:4096 ~cq
           ~user:(fun () -> read_done := Sim.now sim));
      ignore
        (Nic.post qp_w ~opcode:Verbs.Write ~bytes:4096 ~cq
           ~user:(fun () -> write_done := Sim.now sim)));
  Sim.run sim;
  List.iter (fun (c : _ Verbs.completion) -> c.Verbs.user ()) (Verbs.Cq.poll cq ~max:10);
  (* full duplex: both complete at the single-transfer time *)
  check_bool "read" true (abs (!read_done - 1756) <= 3);
  check_bool "write" true (abs (!write_done - 1756) <= 3)

let test_cq_notify () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp = Nic.create_qp nic ~depth:4 in
  let cq = Verbs.Cq.create () in
  let notified = ref 0 in
  Verbs.Cq.set_notify cq (fun () -> incr notified);
  ignore (Nic.post qp ~opcode:Verbs.Read ~bytes:64 ~cq ~user:(fun () -> ()));
  Sim.run sim;
  check_int "notified once" 1 !notified

(* --- raw ethernet ------------------------------------------------------ *)

let test_raw_eth_delivery () =
  let sim = Sim.create () in
  let link = Link.create sim ~gbps:100. ~wire_overhead:0. () in
  let got = ref [] and tx_done = ref [] in
  let chan =
    Raw_eth.create sim ~link ~latency_cycles:500
      ~on_tx_complete:(fun p -> tx_done := (p, Sim.now sim) :: !tx_done)
      ~deliver:(fun ~rx_at p -> got := (p, rx_at) :: !got)
  in
  Raw_eth.send chan ~bytes:625 "hello";
  Raw_eth.send chan ~bytes:625 "world";
  check_int "queued+inflight" 1 (Raw_eth.queued chan);
  Sim.run sim;
  check_int "sent" 2 (Raw_eth.sent chan);
  (* 625B at 6.25B/cy = 100 cycles serialization *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "tx completion at serialize end"
    [ ("hello", 100); ("world", 200) ]
    (List.rev !tx_done);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "fifo + latency"
    [ ("hello", 600); ("world", 700) ]
    (List.rev !got)

(* The ring channel against the per-packet-closure channel it replaced
   ([Raw_eth_reference]). Each stream sends packet [i] [gap] cycles
   after packet [i - 1]; it starts with a burst of 20 packets at t = 0,
   more than the ring's first 16 slots, so the ring must grow while
   packets are in flight. Some TX completions and some deliveries send
   a follow-up packet from inside the channel's own callback. Both
   channels must log the same completions and deliveries at the same
   cycles, count the same packets, report the same queue depths, and
   cost the engine the same number of events. *)
let raw_eth_run stream make =
  let sim = Sim.create () in
  let link = Link.create sim ~gbps:100. ~wire_overhead:0.1 () in
  let log = ref [] and send = ref (fun ~bytes:_ _ -> ()) in
  let on_tx p =
    log := Printf.sprintf "tx %d @%d" p (Sim.now sim) :: !log;
    if p < 1000 && p mod 7 = 3 then !send ~bytes:(100 + p) (p + 2000)
  in
  let deliver ~rx_at p =
    log := Printf.sprintf "rx %d @%d" p rx_at :: !log;
    if p < 1000 && p mod 5 = 0 then !send ~bytes:(200 + p) (p + 1000)
  in
  let snd, queued, sent = make sim link ~on_tx ~deliver in
  send := snd;
  let at = ref 0 and depths = ref [] in
  List.iteri
    (fun i (gap, bytes) ->
      at := !at + gap;
      Sim.schedule sim ~delay:!at (fun () ->
          snd ~bytes i;
          depths := queued () :: !depths))
    stream;
  Sim.run sim;
  (List.rev !log, List.rev !depths, sent (), Sim.events_processed sim)

let prop_raw_eth_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 120) (pair (int_range 0 400) (int_range 1 3000)))
  in
  let print stream =
    String.concat "; "
      (List.map (fun (gap, bytes) -> Printf.sprintf "+%d:%dB" gap bytes) stream)
  in
  QCheck.Test.make ~name:"ring channel = per-packet channel" ~count:200
    (QCheck.make ~print gen)
    (fun stream ->
      let stream = List.init 20 (fun i -> (0, 64 + (100 * i))) @ stream in
      let ((_, depths, _, _) as ring) =
        raw_eth_run stream (fun sim link ~on_tx ~deliver ->
            let c =
              Raw_eth.create sim ~link ~latency_cycles:500 ~on_tx_complete:on_tx
                ~deliver
            in
            ( (fun ~bytes p -> Raw_eth.send c ~bytes p),
              (fun () -> Raw_eth.queued c),
              fun () -> Raw_eth.sent c ))
      in
      let reference =
        raw_eth_run stream (fun sim link ~on_tx ~deliver ->
            let c =
              Raw_eth_reference.create sim ~link ~latency_cycles:500 ~deliver
            in
            ( (fun ~bytes p ->
                Raw_eth_reference.send c ~bytes
                  ~on_tx_complete:(fun () -> on_tx p)
                  p),
              (fun () -> Raw_eth_reference.queued c),
              fun () -> Raw_eth_reference.sent c ))
      in
      List.exists (fun d -> d > 16) depths && ring = reference)

(* --- memnode ------------------------------------------------------------ *)

let test_memnode () =
  let m = Memnode.create ~capacity_bytes:10_000 in
  let r = Memnode.register_exn m ~bytes:4000 in
  check_int "base" 0 r.Memnode.base;
  let r2 = Memnode.register_exn m ~bytes:4000 in
  check_int "base2" 4000 r2.Memnode.base;
  check_bool "valid" true (Memnode.validate m ~addr:100 ~bytes:64);
  check_bool "valid across" true (Memnode.validate m ~addr:4000 ~bytes:4000);
  check_bool "invalid" false (Memnode.validate m ~addr:8000 ~bytes:64);
  (* typed refusal: a full node reports what it had left *)
  (match Memnode.register m ~bytes:4000 with
  | Ok _ -> Alcotest.fail "register past capacity should refuse"
  | Error e ->
    check_int "wanted" 4000 e.Memnode.wanted;
    check_int "free" 2000 e.Memnode.free);
  (* the refusal must not have consumed capacity *)
  (match Memnode.register m ~bytes:2000 with
  | Ok r3 -> check_int "refusal left capacity intact" 8000 r3.Memnode.base
  | Error _ -> Alcotest.fail "exact-fit register should succeed");
  Alcotest.check_raises "register_exn raises typed message"
    (Invalid_argument
       "Memnode.register: capacity exhausted (wanted 1, free 0)")
    (fun () -> ignore (Memnode.register_exn m ~bytes:1));
  Memnode.record_read m ~bytes:4096;
  Memnode.record_write m ~bytes:64;
  check_int "reads" 1 (Memnode.reads m);
  check_int "writes" 1 (Memnode.writes m);
  check_int "bytes" 4160 (Memnode.bytes_served m);
  check_int "registered" 10_000 (Memnode.registered_bytes m)

let test_memnode_validate_boundaries () =
  let m = Memnode.create ~capacity_bytes:12_000 in
  let a = Memnode.register_exn m ~bytes:4000 in
  (* leave a hole in the address space by sizing the second region so the
     registered span is contiguous; boundary cases probe region edges *)
  let b = Memnode.register_exn m ~bytes:4000 in
  check_int "a base" 0 a.Memnode.base;
  check_int "b base" 4000 b.Memnode.base;
  (* exact region edges *)
  check_bool "full region a" true (Memnode.validate m ~addr:0 ~bytes:4000);
  check_bool "last byte of a" true (Memnode.validate m ~addr:3999 ~bytes:1);
  check_bool "one past a's end, within b" true
    (Memnode.validate m ~addr:4000 ~bytes:1);
  check_bool "overrun by one byte" false
    (Memnode.validate m ~addr:4000 ~bytes:4001);
  (* zero-byte access: inside a region is valid, at the exclusive end of
     the last region too (empty range at base+bytes), past it is not *)
  check_bool "zero-byte inside" true (Memnode.validate m ~addr:100 ~bytes:0);
  check_bool "zero-byte at end" true (Memnode.validate m ~addr:8000 ~bytes:0);
  check_bool "zero-byte past end" false
    (Memnode.validate m ~addr:8001 ~bytes:0);
  (* cross-region span: regions are registered adjacently but validate is
     per-region — a span crossing the a/b boundary is rejected, exactly
     like an rkey that does not cover the whole access *)
  check_bool "cross-region span rejected" false
    (Memnode.validate m ~addr:3000 ~bytes:2000);
  check_bool "span within one region ok" true
    (Memnode.validate m ~addr:4000 ~bytes:4000)

let test_memnode_throttle_clamp () =
  let m = Memnode.create ~capacity_bytes:4096 in
  check_int "no throttle, no extra" 0 (Memnode.throttle_extra m ~cycles:656);
  Memnode.set_throttle m 0.5;
  check_int "half throttle" 328 (Memnode.throttle_extra m ~cycles:656);
  (* ceil: 0.5 * 655 = 327.5 rounds up *)
  check_int "ceil rounding" 328 (Memnode.throttle_extra m ~cycles:655);
  Memnode.set_throttle m (-3.);
  check (Alcotest.float 0.) "negative clamps to zero" 0. (Memnode.throttle m);
  check_int "clamped throttle adds nothing" 0
    (Memnode.throttle_extra m ~cycles:656);
  Memnode.set_throttle m 0.25;
  check_int "zero-cycle access stays zero" 0
    (Memnode.throttle_extra m ~cycles:0)

let prop_conservation =
  (* every accepted WR produces exactly one completion or one loss, and a
     QP's CQEs arrive in posting order. Depths of 1-9 wrap each ring
     many times, and at 3, 5-7 and 9 the ring's power-of-two capacity
     exceeds the depth; the injector's spikes and stalls, and WRITEs
     that serialize beside a READ of the same QP, make WRs finish out of
     order and take the parked path *)
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 1 60)
           (triple (int_range 0 3) (int_range 1 8192) (int_range 0 20_000)))
        (array_size (return 4) (int_range 1 9))
        (int_range 0 1000) bool)
  in
  let print (posts, depths, seed, faulty) =
    Printf.sprintf "depths=[%s] seed=%d faulty=%b posts=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int depths)))
      seed faulty
      (String.concat "; "
         (List.map (fun (q, b, at) -> Printf.sprintf "%d/%d@%d" q b at) posts))
  in
  QCheck.Test.make ~name:"posted = completed, per-QP FIFO"
    ~count:200 (QCheck.make ~print gen)
    (fun (posts, depths, seed, faulty) ->
      let sim = Sim.create () in
      let fault =
        if faulty then
          Some
            (Injector.create
               {
                 Injector.none with
                 Injector.drop = 0.15;
                 spike = 0.3;
                 stall = 0.1;
                 stall_cycles = 4000;
                 seed;
               })
        else None
      in
      let rx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
      let tx = Link.create sim ~gbps:100. ~wire_overhead:0. () in
      let nic =
        Nic.create ?fault sim ~rx_link:rx ~tx_link:tx ~wqe_overhead_cycles:100
          ~base_latency_cycles:1000 ()
      in
      let qps = Array.map (fun depth -> Nic.create_qp nic ~depth) depths in
      let cq = Verbs.Cq.create () in
      (* per QP, newest first: (post index, WR id) as posted, and as the
         CQEs delivered them *)
      let posted = Array.make 4 [] and seen = Array.make 4 [] in
      let next_wr_id = ref 0 in
      Verbs.Cq.set_notify cq (fun () ->
          Verbs.Cq.drain cq (fun (c : (int * int) Verbs.completion) ->
              let q, i = c.Verbs.user in
              seen.(q) <- (i, c.Verbs.wr_id) :: seen.(q)));
      (* a full QP retries until it accepts, so every WR is posted *)
      let rec post i q bytes () =
        if
          Nic.post qps.(q)
            ~opcode:(if i mod 3 = 0 then Verbs.Write else Verbs.Read)
            ~bytes ~user:(q, i) ~cq
        then begin
          incr next_wr_id;
          posted.(q) <- (i, !next_wr_id) :: posted.(q)
        end
        else Sim.schedule sim ~delay:50 (post i q bytes)
      in
      List.iteri
        (fun i (q, bytes, at) -> Sim.schedule sim ~delay:at (post i q bytes))
        posts;
      Sim.run sim;
      (* the CQEs a QP delivered, in order, are its posts minus the lost
         ones: an ordered subsequence *)
      let rec subsequence seen posted =
        match (seen, posted) with
        | [], _ -> true
        | _ :: _, [] -> false
        | s :: seen', p :: posted' ->
          if s = p then subsequence seen' posted' else subsequence seen posted'
      in
      let cqes = Array.fold_left (fun acc l -> acc + List.length l) 0 seen in
      List.length posts = Nic.posted nic
      && Nic.posted nic = Nic.completed nic + Nic.dropped_completions nic
      && cqes = Nic.completed nic
      && Array.for_all (fun qp -> Nic.outstanding qp = 0) qps
      && Array.for_all2
           (fun seen posted -> subsequence (List.rev seen) (List.rev posted))
           seen posted
      && (faulty || Array.for_all2 ( = ) seen posted))

(* nic.mli's budget: once the rings and the CQ have grown, a post and
   the CQE it produces allocate the completion record (6 fields and a
   header) and nothing else. *)
let test_post_cqe_allocation () =
  let sim = Sim.create () in
  let nic, _, _ = make_nic sim in
  let qp = Nic.create_qp nic ~depth:128 in
  let cq = Verbs.Cq.create () in
  let drained = ref 0 in
  let on_cqe (_ : unit Verbs.completion) = incr drained in
  let round_trips n =
    for _ = 1 to n do
      if not (Nic.post qp ~opcode:Verbs.Read ~bytes:4096 ~user:() ~cq) then
        Alcotest.fail "QP full";
      while Verbs.Cq.depth cq = 0 && Sim.step sim do
        ()
      done;
      Verbs.Cq.drain cq on_cqe
    done
  in
  round_trips 10_000;
  let before = Gc.minor_words () in
  round_trips 10_000;
  let words = Gc.minor_words () -. before in
  check_int "every CQE drained" 20_000 !drained;
  check_bool
    (Printf.sprintf "%.0f words over 10,000 round trips, at most 7 each" words)
    true
    (words <= 7. *. 10_000.)

let () =
  Alcotest.run "rdma"
    [
      ( "link",
        [
          Alcotest.test_case "serialize" `Quick test_link_serialize;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
        ] );
      ( "nic",
        [
          Alcotest.test_case "read completion timing" `Quick
            test_nic_read_completion_timing;
          Alcotest.test_case "qp depth" `Quick test_nic_qp_depth_enforced;
          Alcotest.test_case "per-qp fifo" `Quick test_nic_per_qp_fifo;
          Alcotest.test_case "rr across qps" `Quick test_nic_rr_across_qps;
          Alcotest.test_case "duplex directions" `Quick
            test_nic_directions_independent;
          Alcotest.test_case "cq notify" `Quick test_cq_notify;
        ] );
      ( "raw_eth",
        [ Alcotest.test_case "delivery" `Quick test_raw_eth_delivery ] );
      ( "memnode",
        [
          Alcotest.test_case "regions" `Quick test_memnode;
          Alcotest.test_case "validate boundaries" `Quick
            test_memnode_validate_boundaries;
          Alcotest.test_case "throttle clamping" `Quick
            test_memnode_throttle_clamp;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_conservation;
          QCheck_alcotest.to_alcotest prop_raw_eth_matches_reference;
          Alcotest.test_case "post to CQE allocates the completion only"
            `Quick test_post_cqe_allocation;
        ] );
    ]
