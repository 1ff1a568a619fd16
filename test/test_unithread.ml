module Task = Adios_unithread.Task
module Context = Adios_unithread.Context
module Buffer_pool = Adios_unithread.Buffer_pool
module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- task --------------------------------------------------------------- *)

(* A task whose waits would run on a simulator of its own. *)
let create body = Task.create (Sim.create ()) body

(* Run a task whose body does not block: its outcome arrives before
   [Task.run] returns. *)
let run t =
  let got = ref None in
  Task.run t (fun o -> got := Some o);
  match !got with Some o -> o | None -> Alcotest.fail "the task blocked"

let test_task_run_to_completion () =
  let ran = ref false in
  let t = create (fun () -> ran := true) in
  check_bool "fresh" true (Task.state t = `Fresh);
  check_bool "finished" true (run t = Task.Finished);
  check_bool "ran" true !ran;
  check_bool "state" true (Task.state t = `Finished);
  check_int "no suspensions" 0 (Task.suspensions t)

let test_task_suspend_resume () =
  let stages = ref [] in
  let t =
    create (fun () ->
        stages := "a" :: !stages;
        Task.suspend ();
        stages := "b" :: !stages;
        Task.suspend ();
        stages := "c" :: !stages)
  in
  check_bool "s1" true (run t = Task.Suspended);
  check_bool "suspended" true (Task.state t = `Suspended);
  check_bool "s2" true (run t = Task.Suspended);
  check_bool "fin" true (run t = Task.Finished);
  check (Alcotest.list Alcotest.string) "stages" [ "a"; "b"; "c" ]
    (List.rev !stages);
  check_int "suspensions" 2 (Task.suspensions t)

let test_task_rerun_rejected () =
  let t = create (fun () -> ()) in
  ignore (run t);
  Alcotest.check_raises "finished"
    (Invalid_argument "Task.run: already finished") (fun () ->
      ignore (run t))

(* One task serves every request of a buffer: rearming a finished task
   starts its body from the top again, with its count of suspensions
   back at 0. *)
let test_task_rearm () =
  let runs = ref 0 in
  let t =
    create (fun () ->
        incr runs;
        Task.suspend ())
  in
  check_bool "suspended" true (run t = Task.Suspended);
  check_bool "finished" true (run t = Task.Finished);
  Task.rearm t;
  check_bool "fresh again" true (Task.state t = `Fresh);
  check_int "suspensions reset" 0 (Task.suspensions t);
  check_bool "suspended again" true (run t = Task.Suspended);
  check_bool "finished again" true (run t = Task.Finished);
  check_int "the body ran twice" 2 !runs;
  check_int "one suspension this run" 1 (Task.suspensions t)

(* A suspended task still holds its request's continuation: rearming it
   would drop that request mid-flight. *)
let test_task_rearm_suspended_rejected () =
  let t = create (fun () -> Task.suspend ()) in
  ignore (run t);
  Alcotest.check_raises "suspended" (Invalid_argument "Task.rearm: suspended")
    (fun () -> Task.rearm t);
  check_bool "still suspended" true (Task.state t = `Suspended)

let test_task_result_value () =
  (* tasks deliver results through captured state *)
  let result = ref 0 in
  let t =
    create (fun () ->
        result := 21;
        Task.suspend ();
        result := !result * 2)
  in
  ignore (run t);
  check_int "partial" 21 !result;
  ignore (run t);
  check_int "final" 42 !result

(* A hosted unithread's [Proc.wait] blocks its host's chain only: the
   task parks itself and schedules its own wake-up, the event that ran
   it ends, and other events run meanwhile. The outcome reaches the host
   from the event the task finished or yielded in, at the right cycle,
   and a later [Task.run] from a plain event resumes it in place. *)
let test_task_wait_blocks_only_its_host () =
  let sim = Sim.create () in
  let trace = ref [] in
  let log what = trace := (what, Sim.now sim) :: !trace in
  let t =
    Task.create sim (fun () ->
        Proc.wait 100;
        log "compute-done";
        Task.suspend ();
        Proc.wait 50;
        log "after-resume")
  in
  let host = function
    | Task.Suspended -> log "host: suspended"
    | Task.Finished -> log "host: finished"
  in
  Sim.schedule sim ~delay:0 (fun () ->
      Task.run t host;
      log "run returned");
  Sim.schedule sim ~delay:60 (fun () -> log "other chain");
  Sim.schedule sim ~delay:1000 (fun () -> Task.run t host);
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "trace"
    [
      ("run returned", 0);
      ("other chain", 60);
      ("compute-done", 100);
      ("host: suspended", 100);
      ("after-resume", 1050);
      ("host: finished", 1050);
    ]
    (List.rev !trace);
  check_bool "finished" true (Task.state t = `Finished)

(* A [Proc.suspend] inside a hosted task: the task is running (blocked)
   until resumed, a second run is refused meanwhile, and calling the
   same resume twice raises without waking it again. *)
let test_task_double_resume_rejected () =
  let sim = Sim.create () in
  let resumer = ref None and woke = ref 0 in
  let t =
    Task.create sim (fun () ->
        Proc.suspend (fun resume -> resumer := Some resume);
        incr woke)
  in
  let outcome = ref None in
  Sim.schedule sim ~delay:0 (fun () -> Task.run t (fun o -> outcome := Some o));
  Sim.run sim;
  check_bool "blocked in the suspension" true (Task.state t = `Running);
  Alcotest.check_raises "no second run while blocked"
    (Invalid_argument "Task.run: already running") (fun () ->
      Task.run t ignore);
  let resume =
    match !resumer with Some r -> r | None -> Alcotest.fail "no resumer"
  in
  resume ();
  Sim.run sim;
  check_int "woken once" 1 !woke;
  check_bool "finished" true (!outcome = Some Task.Finished);
  Alcotest.check_raises "double resume"
    (Failure "Proc.suspend: double resume") resume;
  Sim.run sim;
  check_int "still woken once" 1 !woke

(* A wait round trip allocates only its [Wait] effect (two words) and
   the continuation the runtime hands the handler (three, in OCaml
   5.1): five words, pinned. The task's handler
   and wake-up were made with the task, and the wake is one pool cell
   of the engine. The window opens and closes inside the body, after a
   warm-up, so it counts the round trips alone (and the boxed float
   [Gc.minor_words] returns at its start). *)
let test_task_wait_round_trip_allocation () =
  let sim = Sim.create () in
  let trips = 10_000 and warmup = 100 in
  let words = ref 0. in
  let t =
    Task.create sim (fun () ->
        for i = 1 to warmup + trips do
          if i = warmup + 1 then words := Gc.minor_words ();
          Proc.wait 1
        done;
        words := Gc.minor_words () -. !words)
  in
  Sim.schedule sim ~delay:0 (fun () -> Task.run t ignore);
  Sim.run sim;
  check_int "every wait took a cycle" (warmup + trips) (Sim.now sim);
  let per_trip = !words /. float_of_int trips in
  check (Alcotest.float 0.01)
    (Printf.sprintf "%.3f words per wait round trip" per_trip)
    5. per_trip

let test_many_tasks_interleaved () =
  let n = 100 in
  let tasks =
    Array.init n (fun i ->
        create (fun () ->
            Task.suspend ();
            ignore i))
  in
  Array.iter (fun t -> ignore (run t)) tasks;
  Array.iter (fun t -> check_bool "susp" true (Task.state t = `Suspended)) tasks;
  Array.iter (fun t -> ignore (run t)) tasks;
  Array.iter (fun t -> check_bool "fin" true (Task.state t = `Finished)) tasks

(* --- context ------------------------------------------------------------- *)

let test_context_model () =
  check_int "unithread bytes" 80 (Context.context_bytes Context.Unithread);
  check_int "ucontext bytes" 968 (Context.context_bytes Context.Ucontext);
  check_int "unithread cycles" 40 (Context.switch_cycles Context.Unithread);
  check_int "ucontext cycles" 191 (Context.switch_cycles Context.Ucontext);
  check_bool "ratio 4.7x" true
    (float_of_int (Context.switch_cycles Context.Ucontext)
     /. float_of_int (Context.switch_cycles Context.Unithread)
    > 4.5);
  check_bool "memory 12.1x" true
    (float_of_int (Context.context_bytes Context.Ucontext)
     /. float_of_int (Context.context_bytes Context.Unithread)
    > 12.)

let test_pingpong_runs () =
  List.iter
    (fun kind ->
      let step = Context.make_pingpong kind in
      (* many round trips must not stack-overflow or get stuck *)
      for _ = 1 to 10_000 do
        step ()
      done)
    [ Context.Unithread; Context.Ucontext ]

(* --- buffer pool ----------------------------------------------------------- *)

let test_layouts () =
  check_int "unithread 4KB" 4096
    (Buffer_pool.bytes_per_buffer Buffer_pool.unithread_layout);
  check_int "shinjuku 12KB" (3 * 4096)
    (Buffer_pool.bytes_per_buffer Buffer_pool.shinjuku_layout);
  check_int "unithread ctx" 80 Buffer_pool.unithread_layout.Buffer_pool.ctx_bytes;
  check_int "shinjuku ctx" 968 Buffer_pool.shinjuku_layout.Buffer_pool.ctx_bytes

let test_pool_alloc_free () =
  let pool = Buffer_pool.create ~count:3 Buffer_pool.unithread_layout in
  let a = Buffer_pool.alloc pool and b = Buffer_pool.alloc pool in
  check_bool "alloc" true (a >= 0 && b >= 0 && a <> b);
  check_int "in use" 2 (Buffer_pool.in_use pool);
  let c = Buffer_pool.alloc pool in
  check_bool "third" true (c >= 0);
  check_int "exhausted" (-1) (Buffer_pool.alloc pool);
  Buffer_pool.free pool a;
  check_int "after free" a (Buffer_pool.alloc pool);
  check_int "hwm" 3 (Buffer_pool.high_watermark pool)

let test_pool_double_free () =
  let pool = Buffer_pool.create ~count:2 Buffer_pool.unithread_layout in
  let id = Buffer_pool.alloc pool in
  check_bool "allocated" true (id >= 0);
  Buffer_pool.free pool id;
  Alcotest.check_raises "double free"
    (Invalid_argument "Buffer_pool.free: double free") (fun () ->
      Buffer_pool.free pool id)

let test_pool_footprint () =
  let u = Buffer_pool.create ~count:131_072 Buffer_pool.unithread_layout in
  let s = Buffer_pool.create ~count:131_072 Buffer_pool.shinjuku_layout in
  check_int "default count" 131_072 (Buffer_pool.count u);
  (* the paper: 66% smaller footprint, ~1 GB saved over Shinjuku *)
  let saved = Buffer_pool.total_bytes s - Buffer_pool.total_bytes u in
  check_int "1GB saved" (1024 * 1024 * 1024) saved;
  check (Alcotest.float 0.01) "66% smaller" (2. /. 3.)
    (float_of_int saved /. float_of_int (Buffer_pool.total_bytes s))

let prop_pool_alloc_unique =
  QCheck.Test.make ~name:"allocated ids are unique" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let pool = Buffer_pool.create ~count:n Buffer_pool.unithread_layout in
      let ids = List.init n (fun _ -> Buffer_pool.alloc pool) in
      List.for_all (fun id -> id >= 0) ids
      && List.length (List.sort_uniq compare ids) = n
      && Buffer_pool.alloc pool = -1)

(* The pool hands out ids in the order of one free list that holds
   0, 1, 2, ... and takes each freed id back on top. The reference is
   that list, as a [Stack]. An op is [None] for an alloc, or [Some k]
   to free the k-th (mod their number) id currently held. *)
let prop_pool_matches_free_list =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 0 300) (opt ~ratio:0.55 (int_range 0 1000))))
  in
  let print (count, ops) =
    Printf.sprintf "count=%d ops=[%s]" count
      (String.concat "; "
         (List.map
            (function None -> "alloc" | Some k -> Printf.sprintf "free %d" k)
            ops))
  in
  QCheck.Test.make ~name:"pool matches the free-list model" ~count:300
    (QCheck.make ~print gen)
    (fun (count, ops) ->
      let pool = Buffer_pool.create ~count Buffer_pool.unithread_layout in
      let model = Stack.create () in
      for i = count - 1 downto 0 do
        Stack.push i model
      done;
      let held = ref [] and hwm = ref 0 in
      List.for_all
        (fun op ->
          let same =
            match (op, !held) with
            | None, _ ->
              let got = Buffer_pool.alloc pool in
              let want = Option.value (Stack.pop_opt model) ~default:(-1) in
              if want >= 0 then held := want :: !held;
              got = want
            | Some _, [] -> true
            | Some k, ids ->
              let id = List.nth ids (k mod List.length ids) in
              Buffer_pool.free pool id;
              Stack.push id model;
              held := List.filter (fun h -> h <> id) ids;
              true
          in
          hwm := max !hwm (List.length !held);
          same
          && Buffer_pool.in_use pool = List.length !held
          && Buffer_pool.high_watermark pool = !hwm)
        ops)

(* The compute node builds a 131,072-buffer pool for every run. *)
let test_pool_create_allocates_no_free_list () =
  let before = Gc.minor_words () in
  let pool = Buffer_pool.create ~count:131_072 Buffer_pool.unithread_layout in
  let words = Gc.minor_words () -. before in
  check_int "count" 131_072 (Buffer_pool.count pool);
  check_bool
    (Printf.sprintf "%.0f minor words for 131,072 buffers" words)
    true (words < 100.)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "unithread"
    [
      ( "task",
        [
          Alcotest.test_case "run to completion" `Quick
            test_task_run_to_completion;
          Alcotest.test_case "suspend/resume" `Quick test_task_suspend_resume;
          Alcotest.test_case "rerun rejected" `Quick test_task_rerun_rejected;
          Alcotest.test_case "rearm reruns the body" `Quick test_task_rearm;
          Alcotest.test_case "rearm while suspended rejected" `Quick
            test_task_rearm_suspended_rejected;
          Alcotest.test_case "captured state" `Quick test_task_result_value;
          Alcotest.test_case "wait blocks only its host" `Quick
            test_task_wait_blocks_only_its_host;
          Alcotest.test_case "double resume" `Quick
            test_task_double_resume_rejected;
          Alcotest.test_case "wait round trip allocation" `Quick
            test_task_wait_round_trip_allocation;
          Alcotest.test_case "many interleaved" `Quick
            test_many_tasks_interleaved;
        ] );
      ( "context",
        [
          Alcotest.test_case "table 1 model" `Quick test_context_model;
          Alcotest.test_case "pingpong" `Quick test_pingpong_runs;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "layouts" `Quick test_layouts;
          Alcotest.test_case "alloc/free" `Quick test_pool_alloc_free;
          Alcotest.test_case "double free" `Quick test_pool_double_free;
          Alcotest.test_case "footprint" `Quick test_pool_footprint;
          q prop_pool_alloc_unique;
          q prop_pool_matches_free_list;
          Alcotest.test_case "create allocates no free list" `Quick
            test_pool_create_allocates_no_free_list;
        ] );
    ]
