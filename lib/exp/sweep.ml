module Runner = Adios_core.Runner
module App = Adios_core.App
module Arena = Adios_mem.Arena

(* --- dataset images ------------------------------------------------------

   [Spec.points] is app-major, so each app's points form one contiguous
   block, whatever the other axes hold, and a process (or domain) needs
   one image slot: the image of the block in progress. The factory
   closure names the block; every point of an app entry shares it. *)
type slot = ((unit -> App.t) * App.image) option ref

(* End the slot's block: drop its image and run a full major GC, so the
   image is gone before the next one is built and before a fork
   backend forks workers that would otherwise inherit it. *)
let release (slot : slot) =
  if Option.is_some !slot then begin
    slot := None;
    Gc.full_major ()
  end

(* The image of [point]'s block, built from [make ()] when the slot holds
   another block's. Every backend runs several points on an image in one
   process, so the undo journal is armed from the start; a fork worker
   inherits it armed. *)
let image_of (slot : slot) (point : Spec.point) make =
  match !slot with
  | Some (factory, image) when factory == point.Spec.make_app -> image
  | Some _ | None ->
    release slot;
    let image = App.build_image (make ()) in
    Arena.journal image.App.arena;
    slot := Some (point.Spec.make_app, image);
    image

(* One sweep point, in-process: on a fresh dataset, or on the image in
   [slot], whose pages the point wrote are restored when it returns.
   The app is bound before [cfg_tweak] runs (the order sweep.mli
   promises); [cfg_tweak] runs wherever the point runs, so a hook that
   only reads the configuration can tell which point is starting
   there. *)
let run_in ?slot ~cfg_tweak ~profile spec (point : Spec.point) =
  let app = point.Spec.make_app () in
  let cfg = cfg_tweak (Spec.config point) in
  let run image =
    Runner.run cfg app ?image ~offered_krps:point.Spec.load
      ~requests:spec.Spec.requests ~profile ()
  in
  match slot with
  | None -> run None
  | Some slot ->
    let image = image_of slot point (fun () -> app) in
    Fun.protect
      ~finally:(fun () -> Arena.rollback image.App.arena)
      (fun () -> run (Some image))

let run_point ?(cfg_tweak = fun c -> c) ?(profile = false) spec point =
  run_in ~cfg_tweak ~profile spec point

(* Run [f] with a fresh slot, released however [f] ends. *)
let with_slot f =
  let slot = ref None in
  Fun.protect ~finally:(fun () -> release slot) (fun () -> f slot)

let point_label (p : Spec.point) =
  let variant = fst p.Spec.variant in
  Printf.sprintf "%s/%s%s @ %.0f krps (seed %d)"
    (Adios_core.Config.system_name p.Spec.system)
    p.Spec.app_name
    (if String.equal variant (fst Spec.default_variant) then ""
     else " [" ^ variant ^ "]")
    p.Spec.load p.Spec.point_seed

(* What a point comes to. A forked worker marshals it back over its
   pipe: Runner.result is plain data (records, arrays, floats), so
   Marshal round-trips it exactly. A domain shares it directly. *)
type outcome = Done of Runner.result | Failed of string

let attempt slot ~cfg_tweak ~profile spec point =
  match run_in ~slot ~cfg_tweak ~profile spec point with
  | r -> Done r
  | exception e -> Failed (Printexc.to_string e)

(* Run by a process before every point after its first (the sequential
   backend, and each fork worker): a full major collection, so the last
   point's testbed is gone before the next one builds its own, and
   every point meets the collector in the same state. Otherwise how
   many dead testbeds are still held when a point builds its own
   depends on how much every earlier point allocated, and the sweep's
   peak RSS moves by tens of MB with the sweep seed or any change to
   the allocation rate. *)
let between_points () = Gc.full_major ()

(* In-process, one point after another, each block's points on one
   image. *)
let run_sequential slot ~cfg_tweak ~profile ~progress spec points =
  List.mapi
    (fun i p ->
      if i > 0 then between_points ();
      let r = run_in ~slot ~cfg_tweak ~profile spec p in
      progress p r;
      (p, r))
    points

(* --- what the parallel backends share ----------------------------------

   Both finish points out of order. Each outcome lands in its point's
   own slot, and [emit_ready] fires [progress] on the calling domain for
   the longest finished prefix, so progress arrives once per point, in
   points order. Both hand out points in index order and stop handing
   them out once [stopped] is set, which a failed point does; so once
   the workers have stopped, every point below the first failing one has
   run, and [results] raises the lowest-indexed failure whatever the
   interleaving. *)
type board = {
  points : Spec.point array;
  outcomes : outcome option Atomic.t array;
  stopped : bool Atomic.t;
  mutable emitted : int;  (** read and written on the calling domain only *)
}

let board points =
  let points = Array.of_list points in
  {
    points;
    outcomes = Array.map (fun _ -> Atomic.make None) points;
    stopped = Atomic.make false;
    emitted = 0;
  }

let post b i outcome =
  Atomic.set b.outcomes.(i) (Some outcome);
  match outcome with Failed _ -> Atomic.set b.stopped true | Done _ -> ()

let rec emit_ready b progress =
  if b.emitted < Array.length b.points then
    match Atomic.get b.outcomes.(b.emitted) with
    | Some (Done r) ->
      progress b.points.(b.emitted) r;
      b.emitted <- b.emitted + 1;
      emit_ready b progress
    | Some (Failed _) | None -> ()

let results b =
  let rec from i =
    if i = Array.length b.points then []
    else
      let p = b.points.(i) in
      match Atomic.get b.outcomes.(i) with
      | Some (Done r) -> (p, r) :: from (i + 1)
      | Some (Failed msg) ->
        failwith (Printf.sprintf "sweep point %s: %s" (point_label p) msg)
      | None ->
        (* only points after a failure go unrun, and [from] raised on
           that failure before reaching them *)
        failwith
          (Printf.sprintf "sweep point %s: never ran, and no earlier point \
                           failed" (point_label p))
  in
  from 0

(* --- the fork backend ----------------------------------------------------

   One pool of worker processes per app block. The coordinator builds
   the block's image, from one factory call of its own, and forks
   [min jobs block_length] workers onto it, which inherit it
   copy-on-write. A worker runs the points it is sent one after another
   on that image, rolling back each point's writes like the in-process
   backends, and exits when its command pipe closes; the next block gets
   a new pool, so no worker holds a stale image. *)
type worker = {
  pid : int;
  cmd : out_channel;  (** point indices, one at a time *)
  res : in_channel;  (** one marshalled outcome per index *)
  mutable point : int;  (** the index in flight, or -1 when idle *)
}

(* A worker's life, in the child: run each point index read from [cmd]
   and marshal its outcome to [res], until [cmd] reaches EOF. *)
let serve slot ~cfg_tweak ~profile spec points cmd res =
  let rec loop first =
    match input_binary_int cmd with
    | exception End_of_file -> ()
    | i ->
      if not first then between_points ();
      let outcome = attempt slot ~cfg_tweak ~profile spec points.(i) in
      Marshal.to_channel res outcome [];
      flush res;
      loop false
  in
  loop true

(* [inherited] holds the coordinator's ends of the older workers' pipes.
   The child closes them: a child holding a copy of a sibling's command
   pipe would keep that pipe from ever reaching EOF. *)
let spawn ~inherited serve =
  let cmd_r, cmd_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    List.iter Unix.close (cmd_w :: res_r :: inherited);
    (try
       serve (Unix.in_channel_of_descr cmd_r) (Unix.out_channel_of_descr res_w)
     with _ -> ());
    (* _exit, not exit: the child must not run the parent's at_exit
       handlers or flush its inherited channels, and no exception may
       unwind into the coordinator's code *)
    Unix._exit 0
  | pid ->
    Unix.close cmd_r;
    Unix.close res_w;
    {
      pid;
      cmd = Unix.out_channel_of_descr cmd_w;
      res = Unix.in_channel_of_descr res_r;
      point = -1;
    }

(* Close every worker's pipes and reap it: an idle worker exits once its
   command pipe closes, and [kill] ends the busy ones first. *)
let stop_workers ~kill workers =
  List.iter
    (fun w ->
      if kill then
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_out_noerr w.cmd;
      close_in_noerr w.res;
      ignore (Unix.waitpid [] w.pid))
    workers

let rec select fds =
  match Unix.select fds [] [] (-1.) with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select fds

(* Points [first, stop) of one block. Each worker starts with one point
   and gets the next unsent one whenever it reports; [select] waits on
   the busy workers' result pipes. However this ends, no worker outlives
   it. *)
let run_block b slot ~jobs ~cfg_tweak ~profile ~progress spec ~first ~stop =
  let point = b.points.(first) in
  ignore (image_of slot point point.Spec.make_app);
  let next = ref first and workers = ref [] in
  let send w =
    if !next < stop && not (Atomic.get b.stopped) then begin
      w.point <- !next;
      incr next;
      output_binary_int w.cmd w.point;
      flush w.cmd
    end
    else w.point <- -1
  in
  let receive w =
    post b w.point
      (match (Marshal.from_channel w.res : outcome) with
      | o -> o
      | exception End_of_file -> Failed "worker exited before reporting");
    send w
  in
  let rec loop () =
    match List.filter (fun w -> w.point >= 0) !workers with
    | [] -> ()
    | busy ->
      let fd w = Unix.descr_of_in_channel w.res in
      let ready = select (List.map fd busy) in
      List.iter (fun w -> if List.mem (fd w) ready then receive w) busy;
      emit_ready b progress;
      loop ()
  in
  match
    for _ = 1 to min jobs (stop - first) do
      let inherited =
        List.concat_map
          (fun w ->
            [ Unix.descr_of_out_channel w.cmd; Unix.descr_of_in_channel w.res ])
          !workers
      in
      workers :=
        spawn ~inherited (serve slot ~cfg_tweak ~profile spec b.points)
        :: !workers
    done;
    List.iter send !workers;
    loop ()
  with
  | () -> stop_workers ~kill:false !workers
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    stop_workers ~kill:true !workers;
    Printexc.raise_with_backtrace e bt

(* Block by block: [Spec.points] is app-major, and a block's points share
   its factory. A failure ends the sweep with its block. *)
let run_forked slot ~jobs ~cfg_tweak ~profile ~progress spec points =
  let b = board points in
  let n = Array.length b.points in
  let rec blocks first =
    if first < n && not (Atomic.get b.stopped) then begin
      let make = b.points.(first).Spec.make_app in
      let rec block_end i =
        if i < n && b.points.(i).Spec.make_app == make then block_end (i + 1)
        else i
      in
      let stop = block_end first in
      run_block b slot ~jobs ~cfg_tweak ~profile ~progress spec ~first ~stop;
      blocks stop
    end
  in
  blocks 0;
  results b

(* --- the domains backend -------------------------------------------------

   [jobs] domains (the caller plus [jobs - 1] spawned ones) claim points
   from one shared cursor and post each outcome on the board — no
   marshalling, the domains share the heap. A point runs for tenths of a
   second and never spawns work, so one fetch-and-add per point is all
   the scheduling a sweep needs. Each domain keeps its own image slot,
   so domains share no dataset either. Determinism is inherited from
   [run_in] building every simulator, app and RNG fresh from the
   point's own seed, on a pristine image: the cursor only decides
   *where* a point runs, never what it sees. The caller releases
   progress between its own points. *)
let run_domains ~jobs ~cfg_tweak ~profile ~progress spec points =
  let b = board points in
  let n = Array.length b.points in
  let cursor = Atomic.make 0 in
  let rec work slot after_point =
    if not (Atomic.get b.stopped) then begin
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        post b i (attempt slot ~cfg_tweak ~profile spec b.points.(i));
        after_point ();
        work slot after_point
      end
    end
  in
  let spawned =
    List.init
      (max 0 (min jobs n - 1))
      (fun _ ->
        Domain.spawn (fun () -> with_slot (fun slot -> work slot ignore)))
  in
  let join () = List.iter Domain.join spawned in
  (match
     with_slot (fun slot -> work slot (fun () -> emit_ready b progress))
   with
  | () -> join ()
  | exception e ->
    (* [progress] raised: stop claiming, let the other domains finish
       their current point, and pass the exception on *)
    Atomic.set b.stopped true;
    join ();
    raise e);
  emit_ready b progress;
  results b

let run ?(jobs = 1) ?(mode = `Fork) ?(cfg_tweak = fun c -> c)
    ?(profile = false) ?(progress = fun _ _ -> ()) spec =
  let points = Spec.points spec in
  if jobs <= 1 then
    with_slot (fun slot ->
        run_sequential slot ~cfg_tweak ~profile ~progress spec points)
  else
    match mode with
    | `Fork ->
      with_slot (fun slot ->
          run_forked slot ~jobs ~cfg_tweak ~profile ~progress spec points)
    | `Domains -> run_domains ~jobs ~cfg_tweak ~profile ~progress spec points
