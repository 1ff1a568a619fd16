module Runner = Adios_core.Runner
module App = Adios_core.App
module Arena = Adios_mem.Arena

(* --- dataset images ------------------------------------------------------

   [Spec.points] is app-major, so each app's points form one contiguous
   block, and a process (or domain) needs one image slot: the image of
   the block in progress. The factory closure names the block; every
   point of an app entry shares it. *)
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
   another block's. [journal] arms the undo journal, for backends that
   run several points on the image in one process. *)
let image_of (slot : slot) (point : Spec.point) ~journal make =
  match !slot with
  | Some (factory, image) when factory == point.Spec.make_app -> image
  | Some _ | None ->
    release slot;
    let image = App.build_image (make ()) in
    if journal then Arena.journal image.App.arena;
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
  let cfg = cfg_tweak (Spec.config spec point) in
  let run image =
    Runner.run cfg app ?image ~offered_krps:point.Spec.load
      ~requests:spec.Spec.requests ~profile ()
  in
  match slot with
  | None -> run None
  | Some slot ->
    let image = image_of slot point ~journal:true (fun () -> app) in
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
  Printf.sprintf "%s/%s @ %.0f krps (seed %d)"
    (Adios_core.Config.system_name p.Spec.system)
    p.Spec.app_name p.Spec.load p.Spec.point_seed

(* What a worker ships back over its pipe. Runner.result is plain data
   (records, arrays, floats), so Marshal round-trips it exactly. *)
type outcome = Done of Runner.result | Failed of string

(* In-process, one point after another, each block's points on one
   image. Every point after the first starts by finishing the major GC
   cycle in progress, so each point meets the collector in the same
   state. Otherwise how many dead testbeds are still held when a point
   builds its own depends on how much every earlier point allocated,
   and the sweep's peak RSS moves by tens of MB with the sweep seed or
   any change to the allocation rate. *)
let run_sequential slot ~cfg_tweak ~profile ~progress spec points =
  List.mapi
    (fun i p ->
      if i > 0 then Gc.major ();
      let r = run_in ~slot ~cfg_tweak ~profile spec p in
      progress p r;
      (p, r))
    points

(* Process-parallel execution: up to [jobs] forked workers at a time,
   each computing one point and marshalling the result back through a
   pipe. Before it forks a block's first point, the parent builds the
   block's image, from one factory call of its own; the workers inherit
   it copy-on-write and run on it as it is, since each exits after its
   point. The parent drains pipes in spawn order, which (a) keeps
   collection deterministic and (b) guarantees every pipe is eventually
   read, so a worker blocked on a full pipe buffer always makes
   progress once its turn comes. *)
let run_forked slot ~jobs ~cfg_tweak ~profile ~progress spec points =
  let n = List.length points in
  let results = Array.make n None in
  let pending = Queue.create () in
  List.iter (fun p -> Queue.push p pending) points;
  let running = Queue.create () in
  let spawn (point : Spec.point) =
    ignore (image_of slot point ~journal:false point.Spec.make_app);
    let rfd, wfd = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rfd;
      let oc = Unix.out_channel_of_descr wfd in
      let outcome =
        match run_in ~slot ~cfg_tweak ~profile spec point with
        | r -> Done r
        | exception e -> Failed (Printexc.to_string e)
      in
      Marshal.to_channel oc outcome [];
      flush oc;
      (* _exit, not exit: the child must not run the parent's at_exit
         handlers or flush its inherited channels *)
      Unix._exit 0
    | pid ->
      Unix.close wfd;
      Queue.push (point, pid, Unix.in_channel_of_descr rfd) running
  in
  let kill_running () =
    Queue.iter
      (fun (_, pid, ic) ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        close_in_noerr ic)
      running
  in
  let reap () =
    let point, pid, ic = Queue.pop running in
    let outcome =
      match (Marshal.from_channel ic : outcome) with
      | o -> o
      | exception End_of_file -> Failed "worker exited before reporting"
    in
    close_in_noerr ic;
    ignore (Unix.waitpid [] pid);
    match outcome with
    | Done r ->
      progress point r;
      results.(point.Spec.index) <- Some r
    | Failed msg ->
      kill_running ();
      failwith (Printf.sprintf "sweep point %s: %s" (point_label point) msg)
  in
  while not (Queue.is_empty pending) do
    if Queue.length running >= jobs then reap ();
    spawn (Queue.pop pending)
  done;
  while not (Queue.is_empty running) do
    reap ()
  done;
  List.map
    (fun (p : Spec.point) ->
      match results.(p.Spec.index) with
      | Some r -> (p, r)
      | None -> assert false (* every index was reaped or we raised *))
    points

(* Domain-parallel execution: [jobs] domains (the caller plus
   [jobs - 1] spawned ones) claim points from one shared cursor and
   publish each outcome in the point's own result slot — no
   marshalling, the domains share the heap. A point runs for tenths of
   a second and never spawns work, so one fetch-and-add per point is all
   the scheduling a sweep needs. Each domain keeps its own image slot,
   so domains share no dataset either. Determinism is inherited from
   [run_in] building every simulator, app and RNG fresh from the
   point's own seed, on a pristine image: the cursor only decides
   *where* a point runs, never what it sees. The caller fires
   [progress] in points order as the finished prefix grows, mirroring
   the forked backend's drain-in-spawn-order behaviour. After a failure
   no further point is claimed; since the cursor hands out indices in
   order, every point below the first failing one has run, so the
   failure raised is the same one the other backends raise. *)
let run_domains ~jobs ~cfg_tweak ~profile ~progress spec points =
  let parr = Array.of_list points in
  let n = Array.length parr in
  let slots = Array.init n (fun _ -> Atomic.make None) in
  let cursor = Atomic.make 0 and failed = Atomic.make false in
  let emitted = ref 0 in
  let rec emit_ready () =
    if !emitted < n then
      match Atomic.get slots.(!emitted) with
      | Some (Done r) ->
        progress parr.(!emitted) r;
        incr emitted;
        emit_ready ()
      | Some (Failed _) | None -> ()
  in
  let rec work slot after_point =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let outcome =
          match run_in ~slot ~cfg_tweak ~profile spec parr.(i) with
          | r -> Done r
          | exception e -> Failed (Printexc.to_string e)
        in
        Atomic.set slots.(i) (Some outcome);
        (match outcome with Failed _ -> Atomic.set failed true | Done _ -> ());
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
  (match with_slot (fun slot -> work slot emit_ready) with
  | () -> join ()
  | exception e ->
    (* [progress] raised: stop claiming, let the other domains finish
       their current point, and pass the exception on *)
    Atomic.set failed true;
    join ();
    raise e);
  emit_ready ();
  List.map
    (fun (p : Spec.point) ->
      match Atomic.get slots.(p.Spec.index) with
      | Some (Done r) -> (p, r)
      | Some (Failed msg) ->
        failwith (Printf.sprintf "sweep point %s: %s" (point_label p) msg)
      | None -> assert false (* only points after a failure go unclaimed *))
    points

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
