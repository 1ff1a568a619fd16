module Arena = Adios_mem.Arena
module Pager = Adios_mem.Pager
module View = Adios_mem.View
module Reclaimer = Adios_mem.Reclaimer
module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- arena ------------------------------------------------------------- *)

let test_arena_rw () =
  let a = Arena.create ~pages:4 ~page_size:4096 in
  check_int "size" 16384 (Arena.size_bytes a);
  check_int "pages" 4 (Arena.pages a);
  Arena.set_u8 a 100 0xAB;
  check_int "u8" 0xAB (Arena.get_u8 a 100);
  Arena.set_u64 a 200 0x1122334455667788L;
  check (Alcotest.int64) "u64" 0x1122334455667788L (Arena.get_u64 a 200);
  Arena.set_int a 300 123456789;
  check_int "int" 123456789 (Arena.get_int a 300);
  Arena.blit_string a 400 "hello";
  check_bool "string" true (Arena.equal_string a 400 5 "hello");
  check_bool "a different string" false (Arena.equal_string a 400 5 "help!");
  check_bool "a different length" false (Arena.equal_string a 400 4 "hello");
  Arena.write_blob a 500 (Bytes.of_string "blob");
  check (Alcotest.string) "blob" "blob"
    (Bytes.to_string (Arena.read_blob a 500 4));
  check_int "page_of_addr" 1 (Arena.page_of_addr a 4096);
  check_int "page_of_addr same page" 0 (Arena.page_of_addr a 4095)

let digest a =
  Digest.to_hex (Digest.bytes (Arena.read_blob a 0 (Arena.size_bytes a)))

(* The undo journal behind shared dataset images: every write function
   is journaled, including a write that straddles two pages, one of
   which an earlier write already saved. *)
let test_arena_rollback () =
  let a = Arena.create ~pages:4 ~page_size:4096 in
  for i = 0 to (Arena.size_bytes a / 8) - 1 do
    Arena.set_int a (i * 8) (i * 7919)
  done;
  let built = digest a in
  Arena.journal a;
  Arena.set_u8 a 4100 0xAB;
  Arena.set_u64 a 4092 0x1122334455667788L;
  Arena.set_int a 8200 (-1);
  Arena.write_blob a 12000 (Bytes.of_string "blob");
  Arena.blit_string a 16380 "tail";
  check (Alcotest.int64) "straddling write landed" 0x1122334455667788L
    (Arena.get_u64 a 4092);
  check_bool "the writes changed the arena" true (digest a <> built);
  Arena.rollback a;
  check Alcotest.string "rollback restores the built image" built (digest a);
  Arena.rollback a;
  check Alcotest.string "a second rollback is a no-op" built (digest a);
  Arena.set_u8 a 0 1;
  Arena.rollback a;
  check Alcotest.string "the journal stays on after a rollback" built
    (digest a)

(* --- pager ------------------------------------------------------------- *)

let test_pager_transitions () =
  let p = Pager.create ~pages:10 ~capacity:4 in
  check_int "free" 4 (Pager.free_frames p);
  check_bool "remote" true (Pager.state p 3 = Pager.Remote);
  Pager.start_fetch p 3;
  check_bool "inflight" true (Pager.state p 3 = Pager.Inflight);
  check_int "free after reserve" 3 (Pager.free_frames p);
  check_int "inflight count" 1 (Pager.inflight p);
  Pager.complete_fetch p 3;
  check_bool "present" true (Pager.state p 3 = Pager.Present);
  check_int "resident" 1 (Pager.resident p);
  check_int "free" 3 (Pager.free_frames p);
  let dirty = Pager.evict p 3 in
  check_bool "clean evict" false dirty;
  check_bool "remote again" true (Pager.state p 3 = Pager.Remote);
  check_int "free restored" 4 (Pager.free_frames p)

let test_pager_invalid_transitions () =
  let p = Pager.create ~pages:4 ~capacity:2 in
  Alcotest.check_raises "complete remote"
    (Invalid_argument "Pager.complete_fetch: not inflight") (fun () ->
      Pager.complete_fetch p 0);
  Alcotest.check_raises "evict remote"
    (Invalid_argument "Pager.evict: not present") (fun () ->
      ignore (Pager.evict p 0));
  Pager.start_fetch p 0;
  Alcotest.check_raises "double fetch"
    (Invalid_argument "Pager.start_fetch: not remote") (fun () ->
      Pager.start_fetch p 0)

let test_pager_no_free_frame () =
  let p = Pager.create ~pages:4 ~capacity:1 in
  Pager.start_fetch p 0;
  Alcotest.check_raises "no frame"
    (Invalid_argument "Pager.start_fetch: no free frame") (fun () ->
      Pager.start_fetch p 1)

let test_pager_dirty () =
  let p = Pager.create ~pages:4 ~capacity:2 in
  Pager.prefill p [ 0 ];
  check_bool "not dirty" false (Pager.is_dirty p 0);
  Pager.mark_dirty p 0;
  check_bool "dirty" true (Pager.is_dirty p 0);
  check_bool "evict returns dirty" true (Pager.evict p 0);
  Pager.prefill p [ 0 ];
  check_bool "dirty cleared on evict" false (Pager.is_dirty p 0)

let test_clock_second_chance () =
  let p = Pager.create ~pages:10 ~capacity:3 in
  Pager.prefill p [ 0; 1; 2 ];
  (* all referenced from prefill; first sweep clears, victim is first slot *)
  (match Pager.pick_victim p with
  | Some v -> check_int "first victim" 0 v
  | None -> Alcotest.fail "no victim");
  (* re-reference page 0: it must be skipped on the next sweep *)
  Pager.touch p 0;
  (match Pager.pick_victim p with
  | Some v -> check_bool "second chance" true (v <> 0)
  | None -> Alcotest.fail "no victim");
  ignore (Pager.evict p 1);
  check_int "resident" 2 (Pager.resident p)

let test_pager_waiters () =
  let p = Pager.create ~pages:4 ~capacity:2 in
  Pager.start_fetch p 0;
  let woken = ref [] in
  Pager.add_waiter p 0 (fun () -> woken := 1 :: !woken);
  Pager.add_waiter p 0 (fun () -> woken := 2 :: !woken);
  Pager.complete_fetch p 0;
  let ws = Pager.take_waiters p 0 in
  check_int "two waiters" 2 (List.length ws);
  List.iter (fun f -> f ()) ws;
  check (Alcotest.list Alcotest.int) "arrival order" [ 1; 2 ] (List.rev !woken);
  check_int "consumed" 0 (List.length (Pager.take_waiters p 0))

let test_frame_waiters () =
  let p = Pager.create ~pages:4 ~capacity:1 in
  Pager.prefill p [ 0 ];
  let woken = ref false in
  Pager.wait_frame p (fun () -> woken := true);
  check_int "queued" 1 (Pager.frame_waiters p);
  ignore (Pager.evict p 0);
  check_bool "woken by evict" true !woken;
  check_int "drained" 0 (Pager.frame_waiters p)

let test_prefill_respects_capacity () =
  let p = Pager.create ~pages:10 ~capacity:3 in
  Pager.prefill p [ 0; 1; 2; 3; 4 ];
  check_int "capped" 3 (Pager.resident p)

let prop_pager_invariants =
  QCheck.Test.make ~name:"pager invariants under random ops" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 300) (pair (int_range 0 2) (int_range 0 19)))
    (fun ops ->
      let p = Pager.create ~pages:20 ~capacity:6 in
      List.iter
        (fun (op, page) ->
          (match op with
          | 0 ->
            if Pager.state p page = Pager.Remote && Pager.free_frames p > 0
            then Pager.start_fetch p page
          | 1 ->
            if Pager.state p page = Pager.Inflight then
              Pager.complete_fetch p page
          | _ ->
            if Pager.state p page = Pager.Present then
              ignore (Pager.evict p page));
          assert (Pager.resident p + Pager.inflight p + Pager.free_frames p = 6);
          assert (Pager.resident p >= 0 && Pager.inflight p >= 0))
        ops;
      true)

(* --- view -------------------------------------------------------------- *)

let test_view_touch () =
  let a = Arena.create ~pages:4 ~page_size:4096 in
  let touches = ref [] in
  let v =
    View.make a ~touch:(fun ~addr ~len ~write -> touches := (addr, len, write) :: !touches)
  in
  View.write_u64 v 8 42L;
  check (Alcotest.int64) "data written" 42L (View.read_u64 v 8);
  check_int "two touches" 2 (List.length !touches);
  (match !touches with
  | [ (8, 8, false); (8, 8, true) ] -> ()
  | _ -> Alcotest.fail "unexpected touch trace");
  View.touch_range v ~addr:100 ~len:50 ~write:false;
  check_int "explicit touch" 3 (List.length !touches)

(* The in-place reads touch the range a copying read would, once, then
   read the bytes where they lie. *)
let test_view_in_place () =
  let a = Arena.create ~pages:2 ~page_size:4096 in
  Arena.blit_string a 4090 "straddle";
  Arena.blit_string a 200 "\003\000\255";
  let touches = ref [] in
  let v =
    View.make a ~touch:(fun ~addr ~len ~write ->
        touches := (addr, len, write) :: !touches)
  in
  check_bool "equal across a page boundary" true
    (View.equal_string v 4090 8 "straddle");
  check_bool "a stored byte differs" false (View.equal_string v 4090 8 "straddlE");
  check_bool "a length differs" false (View.equal_string v 4090 7 "straddle");
  check_int "squared distance" ((3 * 3) + (2 * 2) + (5 * 5))
    (View.sq_distance v 200 (Bytes.of_string "\000\002\250"));
  check
    Alcotest.(list (triple int int bool))
    "one read touch per call, over the range read"
    [ (4090, 8, false); (4090, 8, false); (4090, 7, false); (200, 3, false) ]
    (List.rev !touches);
  check_bool "a range past the arena is refused" true
    (match View.equal_string v 8190 8 "straddle" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_view_direct () =
  let a = Arena.create ~pages:1 ~page_size:4096 in
  let v = View.direct a in
  View.write_string v 0 "direct";
  check_bool "roundtrip" true (View.equal_string v 0 6 "direct");
  View.write_u8 v 10 7;
  check_int "u8" 7 (View.read_u8 v 10);
  View.write_int v 16 99;
  check_int "int" 99 (View.read_int v 16);
  check_bool "arena exposed" true (View.arena v == a)

(* --- reclaimer ---------------------------------------------------------- *)

let test_reclaimer_proactive () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:100 ~capacity:50 in
  Pager.prefill p (List.init 50 (fun i -> i));
  check_int "full" 0 (Pager.free_frames p);
  let evicted = ref 0 in
  let r =
    Reclaimer.start sim p Reclaimer.Proactive Reclaimer.default_config
      ~evict_page:(fun ~page:_ ~dirty:_ k ->
        incr evicted;
        k ())
  in
  Sim.run_until sim (Adios_engine.Clock.of_us 50.);
  Reclaimer.stop r;
  check_bool "evicted to high watermark" true
    (float_of_int (Pager.free_frames p) /. 50. >= 0.05);
  check_int "counter matches" !evicted (Reclaimer.evictions r)

let test_reclaimer_wakeup () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:100 ~capacity:50 in
  Pager.prefill p (List.init 50 (fun i -> i));
  let r =
    Reclaimer.start sim p Reclaimer.Wakeup Reclaimer.default_config
      ~evict_page:(fun ~page:_ ~dirty:_ k -> k ())
  in
  (* without a trigger nothing happens *)
  Sim.run_until sim (Adios_engine.Clock.of_us 20.);
  check_int "no eviction without trigger" 0 (Reclaimer.evictions r);
  Reclaimer.trigger r;
  Sim.run_until sim (Adios_engine.Clock.of_us 100.);
  check_bool "evictions after trigger" true (Reclaimer.evictions r > 0);
  Reclaimer.stop r

let test_reclaimer_wakeup_delay () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:100 ~capacity:50 in
  Pager.prefill p (List.init 50 (fun i -> i));
  let first_evict = ref (-1) in
  let r =
    Reclaimer.start sim p Reclaimer.Wakeup Reclaimer.default_config
      ~evict_page:(fun ~page:_ ~dirty:_ k ->
        if !first_evict < 0 then first_evict := Sim.now sim;
        k ())
  in
  Reclaimer.trigger r;
  Sim.run_until sim (Adios_engine.Clock.of_us 100.);
  Reclaimer.stop r;
  check_bool "scheduling delay respected" true
    (!first_evict >= Reclaimer.default_config.Reclaimer.wakeup_delay)

(* [evict_page]'s continuation is the reclaimer's next step: a write-back
   that has to wait holds the next eviction back until it calls it. *)
let test_reclaimer_waits_for_evict_page () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:100 ~capacity:50 in
  Pager.prefill p (List.init 50 (fun i -> i));
  let times = ref [] in
  let r =
    Reclaimer.start sim p Reclaimer.Proactive Reclaimer.default_config
      ~evict_page:(fun ~page:_ ~dirty:_ k ->
        times := Sim.now sim :: !times;
        Sim.schedule sim ~delay:1000 k)
  in
  Sim.run_until sim (Adios_engine.Clock.of_us 20.);
  Reclaimer.stop r;
  let times = List.rev !times in
  check_bool "several evictions" true (List.length times >= 3);
  ignore
    (List.fold_left
       (fun prev t ->
         check_int "next eviction: the write-back, then the page cost"
           (prev + 1000 + 150) t;
         t)
       (List.hd times) (List.tl times))

let test_reclaimer_dirty_callback () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:10 ~capacity:5 in
  Pager.prefill p [ 0; 1; 2; 3; 4 ];
  Pager.mark_dirty p 2;
  let dirty_seen = ref 0 in
  let r =
    Reclaimer.start sim p Reclaimer.Proactive Reclaimer.default_config
      ~evict_page:(fun ~page:_ ~dirty k ->
        if dirty then incr dirty_seen;
        k ())
  in
  (* evict everything by clearing reference bits through repeated sweeps *)
  Sim.run_until sim (Adios_engine.Clock.of_us 200.);
  Reclaimer.stop r;
  (* watermark eviction may not reach page 2; force full check *)
  let rec drain () =
    match Pager.pick_victim p with
    | Some v ->
      if Pager.evict p v then incr dirty_seen;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "dirty page reported once" 1 !dirty_seen

let test_proc_blocking_on_frames () =
  let sim = Sim.create () in
  let p = Pager.create ~pages:10 ~capacity:1 in
  Pager.prefill p [ 9 ];
  let got_frame = ref (-1) in
  Hosted.spawn sim (fun () ->
      if Pager.free_frames p = 0 then
        Proc.suspend (fun resume -> Pager.wait_frame p resume);
      got_frame := Sim.now sim);
  Sim.schedule sim ~delay:1000 (fun () -> ignore (Pager.evict p 9));
  Sim.run sim;
  check_int "unblocked at eviction" 1000 !got_frame

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "arena",
        [
          Alcotest.test_case "rw" `Quick test_arena_rw;
          Alcotest.test_case "rollback" `Quick test_arena_rollback;
        ] );
      ( "pager",
        [
          Alcotest.test_case "transitions" `Quick test_pager_transitions;
          Alcotest.test_case "invalid transitions" `Quick
            test_pager_invalid_transitions;
          Alcotest.test_case "no free frame" `Quick test_pager_no_free_frame;
          Alcotest.test_case "dirty" `Quick test_pager_dirty;
          Alcotest.test_case "clock second chance" `Quick
            test_clock_second_chance;
          Alcotest.test_case "waiters" `Quick test_pager_waiters;
          Alcotest.test_case "frame waiters" `Quick test_frame_waiters;
          Alcotest.test_case "prefill capacity" `Quick
            test_prefill_respects_capacity;
          q prop_pager_invariants;
        ] );
      ( "view",
        [
          Alcotest.test_case "touch hook" `Quick test_view_touch;
          Alcotest.test_case "direct" `Quick test_view_direct;
          Alcotest.test_case "in-place reads" `Quick test_view_in_place;
        ] );
      ( "reclaimer",
        [
          Alcotest.test_case "proactive" `Quick test_reclaimer_proactive;
          Alcotest.test_case "wakeup" `Quick test_reclaimer_wakeup;
          Alcotest.test_case "wakeup delay" `Quick test_reclaimer_wakeup_delay;
          Alcotest.test_case "dirty callback" `Quick
            test_reclaimer_dirty_callback;
          Alcotest.test_case "waits for evict_page" `Quick
            test_reclaimer_waits_for_evict_page;
          Alcotest.test_case "frame blocking" `Quick
            test_proc_blocking_on_frames;
        ] );
    ]
