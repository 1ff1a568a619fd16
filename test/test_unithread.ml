module Task = Adios_unithread.Task
module Context = Adios_unithread.Context
module Buffer_pool = Adios_unithread.Buffer_pool
module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- task --------------------------------------------------------------- *)

let test_task_run_to_completion () =
  let ran = ref false in
  let t = Task.create (fun () -> ran := true) in
  check_bool "fresh" true (Task.state t = `Fresh);
  check_bool "finished" true (Task.run t = Task.Finished);
  check_bool "ran" true !ran;
  check_bool "state" true (Task.state t = `Finished);
  check_int "no suspensions" 0 (Task.suspensions t)

let test_task_suspend_resume () =
  let stages = ref [] in
  let t =
    Task.create (fun () ->
        stages := "a" :: !stages;
        Task.suspend ();
        stages := "b" :: !stages;
        Task.suspend ();
        stages := "c" :: !stages)
  in
  check_bool "s1" true (Task.run t = Task.Suspended);
  check_bool "suspended" true (Task.state t = `Suspended);
  check_bool "s2" true (Task.run t = Task.Suspended);
  check_bool "fin" true (Task.run t = Task.Finished);
  check (Alcotest.list Alcotest.string) "stages" [ "a"; "b"; "c" ]
    (List.rev !stages);
  check_int "suspensions" 2 (Task.suspensions t)

let test_task_rerun_rejected () =
  let t = Task.create (fun () -> ()) in
  ignore (Task.run t);
  Alcotest.check_raises "finished"
    (Invalid_argument "Task.run: already finished") (fun () ->
      ignore (Task.run t))

(* One task serves every request of a buffer: rearming a finished task
   starts its body from the top again, with its count of suspensions
   back at 0. *)
let test_task_rearm () =
  let runs = ref 0 in
  let t =
    Task.create (fun () ->
        incr runs;
        Task.suspend ())
  in
  check_bool "suspended" true (Task.run t = Task.Suspended);
  check_bool "finished" true (Task.run t = Task.Finished);
  Task.rearm t;
  check_bool "fresh again" true (Task.state t = `Fresh);
  check_int "suspensions reset" 0 (Task.suspensions t);
  check_bool "suspended again" true (Task.run t = Task.Suspended);
  check_bool "finished again" true (Task.run t = Task.Finished);
  check_int "the body ran twice" 2 !runs;
  check_int "one suspension this run" 1 (Task.suspensions t)

(* A suspended task still holds its request's continuation: rearming it
   would drop that request mid-flight. *)
let test_task_rearm_suspended_rejected () =
  let t = Task.create (fun () -> Task.suspend ()) in
  ignore (Task.run t);
  Alcotest.check_raises "suspended" (Invalid_argument "Task.rearm: suspended")
    (fun () -> Task.rearm t);
  check_bool "still suspended" true (Task.state t = `Suspended)

let test_task_result_value () =
  (* tasks deliver results through captured state *)
  let result = ref 0 in
  let t =
    Task.create (fun () ->
        result := 21;
        Task.suspend ();
        result := !result * 2)
  in
  ignore (Task.run t);
  check_int "partial" 21 !result;
  ignore (Task.run t);
  check_int "final" 42 !result

let test_task_inside_proc () =
  (* a task's Proc.wait must block the hosting worker process, and the
     task must resume inside that process after a suspension *)
  let sim = Sim.create () in
  let trace = ref [] in
  let resume_cb = ref None in
  let t =
    Task.create (fun () ->
        Proc.wait 100;
        trace := ("compute-done", Sim.now sim) :: !trace;
        Task.suspend ();
        Proc.wait 50;
        trace := ("after-resume", Sim.now sim) :: !trace)
  in
  Proc.spawn sim (fun () ->
      (match Task.run t with
      | Task.Suspended -> ()
      | Task.Finished -> Alcotest.fail "early finish");
      trace := ("worker-free", Sim.now sim) :: !trace;
      (* park until the external event resumes us *)
      Proc.suspend (fun r -> resume_cb := Some r);
      match Task.run t with
      | Task.Finished -> trace := ("finished", Sim.now sim) :: !trace
      | Task.Suspended -> Alcotest.fail "unexpected suspension");
  Sim.schedule sim ~delay:1000 (fun () ->
      match !resume_cb with Some r -> r () | None -> Alcotest.fail "no cb");
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "trace"
    [
      ("compute-done", 100);
      ("worker-free", 100);
      ("after-resume", 1050);
      ("finished", 1050);
    ]
    (List.rev !trace)

let test_many_tasks_interleaved () =
  let n = 100 in
  let tasks =
    Array.init n (fun i ->
        Task.create (fun () ->
            Task.suspend ();
            ignore i))
  in
  Array.iter (fun t -> ignore (Task.run t)) tasks;
  Array.iter (fun t -> check_bool "susp" true (Task.state t = `Suspended)) tasks;
  Array.iter (fun t -> ignore (Task.run t)) tasks;
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
          Alcotest.test_case "inside proc" `Quick test_task_inside_proc;
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
