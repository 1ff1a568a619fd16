(* Figure-shape oracles: the paper's headline claims are curve shapes —
   where each system's P99.9 knee falls, that achieved throughput climbs
   to a plateau instead of collapsing, and that Adios sustains more load
   before its knee than every baseline. These checks read a Dataset and
   turn each shape into a pass/fail, so a model change that flattens
   Adios's advantage fails `dune runtest` instead of landing silently. *)

type violation = string

(* --- knee detection ----------------------------------------------------- *)

(* Rows of one (system, app) curve, ascending by nominal load. *)
let curve ds ~system ~app =
  let ds = Dataset.filter ds ~name:"system" ~value:system in
  let ds = Dataset.filter ds ~name:"app" ~value:app in
  List.sort
    (fun a b -> Float.compare (Dataset.getf ds a "load") (Dataset.getf ds b "load"))
    ds.Dataset.rows

(* The knee of a latency curve: the first load point whose P99.9 exceeds
   [k] times the low-load baseline (the curve's first point). None means
   the curve never collapses within the grid — the system sustains every
   offered load swept. *)
let knee ?(k = 3.) ds ~system ~app =
  match curve ds ~system ~app with
  | [] | [ _ ] -> None
  | baseline :: rest ->
    let base = Float.max 1e-9 (Dataset.getf ds baseline "p999_us") in
    List.find_map
      (fun row ->
        if Dataset.getf ds row "p999_us" > k *. base then
          Some (Dataset.getf ds row "load")
        else None)
      rest

let knees ?k ds ~app =
  List.map (fun system -> (system, knee ?k ds ~system ~app)) (Dataset.systems ds)

let check_knees_detected ?k ds ~app =
  List.concat_map
    (fun (system, knee) ->
      match knee with
      | Some _ -> []
      | None ->
        [ Printf.sprintf
            "%s/%s: no P99.9 knee within the load grid — widen the grid or \
             the collapse disappeared"
            system app ])
    (knees ?k ds ~app)

(* Adios must sustain at least as much load as every baseline before its
   knee. A missing knee ranks as +infinity: the system outlasted the
   grid. *)
let check_ranking ?k ?(best = "Adios") ds ~app =
  let ks = knees ?k ds ~app in
  match List.assoc_opt best ks with
  | None -> [ Printf.sprintf "%s/%s: no such curve in the dataset" best app ]
  | Some best_knee ->
    let value = function None -> infinity | Some l -> l in
    List.concat_map
      (fun (system, knee) ->
        if String.equal system best then []
        else if value best_knee >= value knee then []
        else
          [ Printf.sprintf
              "%s/%s knee at %.0f krps is below %s's at %.0f krps: the \
               headline ordering regressed"
              best app (value best_knee) system (value knee) ])
      ks

(* --- throughput monotonicity -------------------------------------------- *)

(* Achieved throughput must climb with offered load and then plateau; it
   may sag past saturation (drops and errored replies leave the window)
   but never collapse below (1 - slack) of the best rate seen so far.
   The default slack accommodates Hermit's reduced-scale overload sag
   (~13% below peak) while still failing a true collapse. *)
let check_throughput_monotone ?(slack = 0.2) ds =
  List.concat_map
    (fun (app, _) ->
      List.concat_map
        (fun system ->
          let rows = curve ds ~system ~app in
          let _, violations =
            List.fold_left
              (fun (peak, violations) row ->
                let achieved = Dataset.getf ds row "achieved_krps" in
                let violations =
                  if achieved < (1. -. slack) *. peak then
                    Printf.sprintf
                      "%s/%s: achieved throughput collapses to %.0f krps at \
                       offered %.0f after peaking at %.0f"
                      system app achieved
                      (Dataset.getf ds row "load")
                      peak
                    :: violations
                  else violations
                in
                (Float.max peak achieved, violations))
              (0., []) rows
          in
          List.rev violations)
        (Dataset.systems ds))
    (Dataset.group_by ds ~name:"app")

(* --- conservation -------------------------------------------------------- *)

(* Tie each row back to the exported counters: every injected request is
   accounted for exactly once, and the counter identities that hold by
   construction inside the system hold on the CSV too. *)
let check_conservation ds =
  List.concat_map
    (fun row ->
      let i = Dataset.geti ds row in
      let where =
        Printf.sprintf "%s/%s @ %s krps"
          (Dataset.get ds row "system")
          (Dataset.get ds row "app")
          (Dataset.get ds row "load")
      in
      let checks =
        [
          ( "completed + dropped = requests",
            i "completed" + i "dropped" = i "requests" );
          ( "dropped = drops_queue + drops_buffer",
            i "dropped" = i "drops_queue" + i "drops_buffer" );
          ( "handled + errored = completed",
            i "handled" + i "errored" = i "completed" );
          ("completed = admitted", i "completed" = i "admitted");
          ( "prefetch useful + wasted <= issued",
            i "prefetch_useful" + i "prefetch_wasted" <= i "prefetch_issued" );
        ]
      in
      List.concat_map
        (fun (label, ok) ->
          if ok then [] else [ Printf.sprintf "%s: %s violated" where label ])
        checks)
    ds.Dataset.rows

(* --- CPU accounting ------------------------------------------------------- *)

let cpu_share_columns = List.map fst Adios_core.Export.cpu_share_columns

(* Conservation of worker cycles: the accountant's states partition each
   worker's time, so the exported shares must sum to 1 on every row (up
   to the 4-decimal CSV rounding of 8 columns). A gap or double-count in
   the system.ml instrumentation shows up here. *)
let check_cpu_conservation ?(tol = 0.01) ds =
  List.concat_map
    (fun row ->
      let sum =
        List.fold_left
          (fun acc c -> acc +. Dataset.getf ds row c)
          0. cpu_share_columns
      in
      if Float.abs (sum -. 1.) <= tol then []
      else
        [ Printf.sprintf
            "%s/%s @ %s krps: worker state shares sum to %.4f, not 1.0 — \
             cycles leaked or double-counted"
            (Dataset.get ds row "system")
            (Dataset.get ds row "app")
            (Dataset.get ds row "load")
            sum ])
    ds.Dataset.rows

(* The yield-based systems: Adios, and the Steal variant that runs
   Adios's fault protocol on per-CPU run queues. Both must show zero
   spin; every other system is a busy-waiting baseline. *)
let yield_systems = [ "Adios"; "Steal" ]

(* The paper's headline (Fig. 2): busy-waiting burns the baseline's
   worker cycles while the yield-based systems eliminate the spin
   entirely. Gate the direction: each yield system must stay below
   [adios_max] at every point, and each spinning baseline must exceed
   [spin_min] somewhere at-or-past its knee (at high load the spin
   dominates; at low load workers idle). *)
let check_busywait_elimination ?(adios_max = 0.02) ?(spin_min = 0.3) ds =
  List.concat_map
    (fun (app, _) ->
      List.concat_map
        (fun system ->
          let rows = curve ds ~system ~app in
          let shares =
            List.map (fun row -> Dataset.getf ds row "cpu_busy_wait_share") rows
          in
          if List.exists (String.equal system) yield_systems then
            List.concat_map
              (fun share ->
                if share <= adios_max then []
                else
                  [ Printf.sprintf
                      "%s/%s: busy-wait share %.3f exceeds %.3f — the \
                       yield path regressed into spinning"
                      system app share adios_max ])
              shares
          else
            let peak = List.fold_left Float.max 0. shares in
            if peak >= spin_min then []
            else
              [ Printf.sprintf
                  "%s/%s: peak busy-wait share %.3f never reaches %.3f — \
                   the baseline stopped spinning, so the comparison is \
                   no longer against busy-waiting"
                  system app peak spin_min ])
        (Dataset.systems ds))
    (Dataset.group_by ds ~name:"app")

(* --- tail forensics (phase attribution) ----------------------------------- *)

let phase_where ds row =
  Printf.sprintf "%s/%s @ %s krps band %s"
    (Dataset.get ds row "system")
    (Dataset.get ds row "app")
    (Dataset.get ds row "load")
    (Dataset.get ds row "band")

(* Phase conservation, re-checked from the CSV alone: the per-phase
   cycle columns of every band row must sum EXACTLY (integer equality,
   no tolerance) to the band's e2e_cycles. The profiler enforces this
   per request at finalize time; this oracle proves the property
   survived aggregation, export and parsing. *)
let check_phase_conservation ds =
  List.concat_map
    (fun row ->
      let sum =
        List.fold_left
          (fun acc c -> acc + Dataset.geti ds row c)
          0 Adios_core.Export.phase_column_names
      in
      let e2e = Dataset.geti ds row "e2e_cycles" in
      if sum = e2e then []
      else
        [ Printf.sprintf
            "%s: phase cycles sum to %d but e2e_cycles is %d — the \
             segmentation leaked or double-counted"
            (phase_where ds row) sum e2e ])
    ds.Dataset.rows

(* The latency bands that make up the tail. *)
let tail_bands = [ "p99_p999"; "p999_max" ]

let is_tail_band ds row =
  List.exists (String.equal (Dataset.get ds row "band")) tail_bands

let phase_share ds row cols =
  let e2e = Dataset.geti ds row "e2e_cycles" in
  if e2e <= 0 then 0.
  else
    float_of_int
      (List.fold_left (fun acc c -> acc + Dataset.geti ds row c) 0 cols)
    /. float_of_int e2e

(* The paper's attribution claim, turned into a gate on the tail bands
   (p99–p99.9 and beyond): a busy-waiting baseline's stragglers spend
   their latency spinning or queueing behind spinners — the CPU
   pathology Adios removes — while a yield-based system's stragglers
   wait on things no scheduler can remove: fabric round-trips (fetch /
   retry / failover wire time) plus the queue they share with everyone.

   Two kinds of check, mirroring check_busywait_elimination's shape:

   - per ROW: a yield system's busy-wait share stays below [busy_max]
     on every populated tail-band row — the yield path must never
     regress into spinning, at any load.
   - per CURVE: somewhere in each (system, app) series the tail must be
     dominated by the class's signature wait — wire + queue + ready
     waits at [wire_min] for a yield system, busy-wait + queue at
     [spin_min] for a spinning baseline. A peak property, not a
     per-row one: at low load a heavy-tailed app's compute legitimately
     owns the tail (a handful of giant requests), and only as load
     climbs does the signature wait take over.

   Defaults are calibrated on the checked-in reduced goldens (see
   test/golden/*-phases.csv). *)
let check_tail_attribution ?(busy_max = 0.02) ?(spin_min = 0.25)
    ?(wire_min = 0.25) ds =
  let wire_cols =
    [
      "req_wire_cycles";
      "fetch_wire_cycles";
      "retry_backoff_cycles";
      "failover_wait_cycles";
      "steal_wait_cycles";
      "queue_cycles";
      "tx_cycles";
    ]
  in
  let is_yield row =
    List.exists (String.equal (Dataset.get ds row "system")) yield_systems
  in
  let populated row =
    is_tail_band ds row && Dataset.geti ds row "requests" > 0
  in
  let busy_violations =
    List.concat_map
      (fun row ->
        if not (populated row && is_yield row) then []
        else
          let busy = phase_share ds row [ "busy_wait_cycles" ] in
          if busy <= busy_max then []
          else
            [ Printf.sprintf
                "%s: busy-wait is %.3f of tail-band latency (max %.3f) — \
                 the yield path regressed into spinning"
                (phase_where ds row) busy busy_max ])
      ds.Dataset.rows
  in
  let peaks = Hashtbl.create 8 in
  List.iter
    (fun row ->
      if populated row then begin
        let key = (Dataset.get ds row "system", Dataset.get ds row "app") in
        let share =
          if is_yield row then phase_share ds row wire_cols
          else phase_share ds row [ "busy_wait_cycles"; "queue_cycles" ]
        in
        match Hashtbl.find_opt peaks key with
        | Some prev when prev >= share -> ()
        | Some _ | None -> Hashtbl.replace peaks key share
      end)
    ds.Dataset.rows;
  let peak_violations =
    Hashtbl.fold
      (fun (system, app) peak acc ->
        if List.mem system yield_systems then
          if peak >= wire_min then acc
          else
            Printf.sprintf
              "%s/%s: wire+queue+ready wait peaks at %.3f of tail-band \
               latency (min %.3f) — no load makes the tail \
               irreducible-wait-dominated, so something on-CPU is dragging"
              system app peak wire_min
            :: acc
        else if peak >= spin_min then acc
        else
          Printf.sprintf
            "%s/%s: busy-wait+queue peaks at %.3f of tail-band latency \
             (min %.3f) — the baseline's tail is never \
             spin/queue-dominated, so the comparison premise broke"
            system app peak spin_min
          :: acc)
      peaks []
  in
  busy_violations @ List.sort String.compare peak_violations

(* The oracle set a profiled sweep's phase dataset must pass. *)
let check_phases ?busy_max ?spin_min ?wire_min ds =
  check_phase_conservation ds
  @ check_tail_attribution ?busy_max ?spin_min ?wire_min ds

(* --- cluster topology ----------------------------------------------------- *)

(* Rows of a clustered sweep carry the topology columns; these oracles
   gate the failure-handling claims of the multi-node model. Pairing is
   by "twin": the row with the same (system, app, load, nodes) — and,
   where stated, replication — but a quieter topology. *)

let cluster_where ds row =
  Printf.sprintf "nodes=%s R=%s crashes=%s @ %s krps"
    (Dataset.get ds row "nodes")
    (Dataset.get ds row "replication")
    (Dataset.get ds row "crashes")
    (Dataset.get ds row "load")

let same_cells ds a b names =
  List.for_all
    (fun c -> String.equal (Dataset.get ds a c) (Dataset.get ds b c))
    names

(* A crashing topology must actually crash, and the outcome must split
   on replication: R >= 2 rides through on failover reads with zero
   errored requests and a P99.9 within [tail_factor] of its no-crash
   twin (in-flight WQEs swallowed by the dying node burn one timeout
   ladder before re-routing, so the tail moves — boundedly); R = 1 has
   nowhere to fail over, so the dead primary's pages must surface
   errors instead of being silently served. *)
let check_failover ?(tail_factor = 10.) ds =
  let twin row =
    List.find_opt
      (fun cand ->
        Dataset.geti ds cand "crashes" = 0
        && same_cells ds cand row
             [ "system"; "app"; "load"; "nodes"; "replication" ])
      ds.Dataset.rows
  in
  List.concat_map
    (fun row ->
      if Dataset.geti ds row "crashes" = 0 then []
      else
        let where = cluster_where ds row in
        let fired =
          if Dataset.geti ds row "nodes_failed" >= 1 then []
          else
            [ Printf.sprintf
                "%s: scheduled crash never fired (nodes_failed = 0)" where ]
        in
        let outcome =
          if Dataset.geti ds row "replication" >= 2 then
            let errored =
              let n = Dataset.geti ds row "errored" in
              if n = 0 then []
              else
                [ Printf.sprintf
                    "%s: %d errored requests despite R >= 2 — failover \
                     reads regressed"
                    where n ]
            in
            let failed_over =
              if Dataset.geti ds row "failovers" >= 1 then []
              else
                [ Printf.sprintf
                    "%s: node died yet no read failed over to a replica"
                    where ]
            in
            let tail =
              match twin row with
              | None -> []
              | Some t ->
                let p = Dataset.getf ds row "p999_us" in
                let base = Float.max 1e-9 (Dataset.getf ds t "p999_us") in
                if p <= tail_factor *. base then []
                else
                  [ Printf.sprintf
                      "%s: P99.9 %.2f us is over %.0fx the no-crash twin's \
                       %.2f us — failover degradation unbounded"
                      where p tail_factor base ]
            in
            errored @ failed_over @ tail
          else if Dataset.geti ds row "errored" > 0 then []
          else
            [ Printf.sprintf
                "%s: R = 1 crash produced zero errored requests — the dead \
                 primary's pages were silently served"
                where ]
        in
        fired @ outcome)
    ds.Dataset.rows

(* Replicated write-backs fan out over the fabric but must not poison
   the read tail: on a healthy topology, the R = 2 P99.9 stays within
   [factor] of the R = 1 twin at the same (nodes, load). *)
let check_replication_tail ?(factor = 3.) ds =
  List.concat_map
    (fun row ->
      if
        Dataset.geti ds row "crashes" <> 0
        || Dataset.geti ds row "replication" < 2
      then []
      else
        let r1 =
          List.find_opt
            (fun cand ->
              Dataset.geti ds cand "crashes" = 0
              && Dataset.geti ds cand "replication" = 1
              && same_cells ds cand row [ "system"; "app"; "load"; "nodes" ])
            ds.Dataset.rows
        in
        match r1 with
        | None -> []
        | Some t ->
          let p = Dataset.getf ds row "p999_us" in
          let base = Float.max 1e-9 (Dataset.getf ds t "p999_us") in
          if p <= factor *. base then []
          else
            [ Printf.sprintf
                "%s: P99.9 %.2f us is over %.0fx the R = 1 twin's %.2f us — \
                 replication overhead poisoned the read tail"
                (cluster_where ds row) p factor base ])
    ds.Dataset.rows

(* --- golden comparison --------------------------------------------------- *)

(* The simulator is deterministic, so an unchanged model reproduces a
   golden byte for byte, and any difference is a model change: the
   comparison is exact, and a change that moves a golden regenerates it
   (adios_sweep --regen-golden). A header or row-count change leaves no
   cells to pair, so it is the one violation reported. *)
let compare_golden ~golden ds =
  let line = String.concat "," in
  if not (List.equal String.equal golden.Dataset.header ds.Dataset.header) then
    [ Printf.sprintf "header changed: golden %s, got %s"
        (line golden.Dataset.header) (line ds.Dataset.header) ]
  else if Dataset.length golden <> Dataset.length ds then
    [ Printf.sprintf "row count changed: golden %d, got %d"
        (Dataset.length golden) (Dataset.length ds) ]
  else
    List.concat
      (List.mapi
         (fun i (grow, row) ->
           List.concat
             (List.map2
                (fun column (g, v) ->
                  if String.equal g v then []
                  else
                    [ Printf.sprintf "row %d, column %s: %S, golden %S" (i + 1)
                        column v g ])
                golden.Dataset.header (List.combine grow row)))
         (List.combine golden.Dataset.rows ds.Dataset.rows))

(* --- bundles ------------------------------------------------------------- *)

(* The standard oracle set a reduced-scale golden sweep must pass. *)
let check_all ?k ds =
  List.concat_map
    (fun app ->
      check_knees_detected ?k ds ~app @ check_ranking ?k ds ~app)
    (Dataset.apps ds)
  @ check_throughput_monotone ds
  @ check_conservation ds
  @ check_cpu_conservation ds
  @ check_busywait_elimination ds

(* The bundle for a clustered sweep (one system, one sub-knee load, a
   topology grid): the knee/ranking/busy-wait shapes need full load
   curves and a multi-system comparison, so here the gates are the
   conservation identities plus the failure-handling claims. *)
let check_cluster ?tail_factor ?factor ds =
  check_conservation ds
  @ check_cpu_conservation ds
  @ check_failover ?tail_factor ds
  @ check_replication_tail ?factor ds

(* --- steal dispatch ------------------------------------------------------- *)

(* The Steal system's per-CPU queues only make sense if work actually
   moves: somewhere in the curve an idle CPU must have taken a request
   from a sibling. Conversely Adios's centralized PF-aware dispatch has
   no sibling queues, so its steals column must be identically zero —
   a nonzero value there means the steal path leaked into the
   single-queue systems. *)
let check_steal_activity ds =
  List.concat_map
    (fun (app, _) ->
      List.concat_map
        (fun system ->
          let rows = curve ds ~system ~app in
          let steals =
            List.map (fun row -> Dataset.geti ds row "steals") rows
          in
          if String.equal system "Steal" then
            if List.exists (fun s -> s > 0) steals then []
            else
              [ Printf.sprintf
                  "Steal/%s: zero steals across the whole curve — the \
                   per-CPU queues never rebalanced, so the variant \
                   degenerated into d-FCFS"
                  app ]
          else
            List.concat_map
              (fun s ->
                if s = 0 then []
                else
                  [ Printf.sprintf
                      "%s/%s: %d steals on a single-queue system — the \
                       steal path leaked outside Work_stealing dispatch"
                      system app s ])
              steals)
        (Dataset.systems ds))
    (Dataset.group_by ds ~name:"app")

(* The distributed-dispatch tail comparison (the shape section 3.4
   argues): below Adios's knee, per-CPU queues with stealing stay in the
   same latency regime as the centralized PF-aware queue — stealing
   approximates c-FCFS — but may pay a bounded premium for queue
   imbalance and steal scans. [factor] bounds Steal's P99.9 against
   Adios's at every shared sub-knee load; it is deliberately loose (the
   claim is "same regime", not "equal"), calibrated against the checked-
   in steal-reduced golden. *)
let check_steal_tail ?(factor = 5.) ds =
  List.concat_map
    (fun (app, _) ->
      let adios_knee = knee ds ~system:"Adios" ~app in
      let below_knee load =
        match adios_knee with None -> true | Some k -> load < k
      in
      let adios = curve ds ~system:"Adios" ~app in
      List.concat_map
        (fun row ->
          let load = Dataset.getf ds row "load" in
          if not (below_knee load) then []
          else
            let twin =
              List.find_opt
                (fun cand -> Dataset.getf ds cand "load" = load)
                adios
            in
            match twin with
            | None -> []
            | Some t ->
              let p = Dataset.getf ds row "p999_us" in
              let base = Float.max 1e-9 (Dataset.getf ds t "p999_us") in
              if p <= factor *. base then []
              else
                [ Printf.sprintf
                    "Steal/%s @ %.0f krps: P99.9 %.2f us is over %.0fx \
                     Adios's %.2f us — distributed dispatch left the \
                     centralized queue's latency regime below the knee"
                    app load p factor base ])
        (curve ds ~system:"Steal" ~app))
    (Dataset.group_by ds ~name:"app")

(* The bundle for the steal-reduced golden (Adios vs Steal at high core
   count): the standard shape and conservation gates, plus proof that
   stealing happened and the documented tail comparison. Ranking is
   deliberately absent — whether the centralized queue or stealing knees
   first at 16 workers is a measurement this spec exists to record, not
   an invariant to freeze. *)
let check_steal ?k ?factor ds =
  List.concat_map
    (fun app -> check_knees_detected ?k ds ~app)
    (Dataset.apps ds)
  @ check_throughput_monotone ds
  @ check_conservation ds
  @ check_cpu_conservation ds
  @ check_busywait_elimination ds
  @ check_steal_activity ds
  @ check_steal_tail ?factor ds
