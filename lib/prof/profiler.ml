(* Streaming critical-path profiler: one tiny mutable record per
   admitted request, advanced by [System.enter] in lib/core/system.ml,
   the one probe that also moves the request's worker to the matching
   per-CPU accountant state when the phase runs on a CPU
   ([Phase.cpu_state]). A switch closes the current segment at [Sim.now] and
   opens the next, so the per-phase cycle array telescopes from the
   client TX timestamp to the reply RX timestamp: phase cycles sum
   EXACTLY to end-to-end latency, by construction, for every request —
   the invariant [finalize] re-checks and test_prof qchecks across all
   five systems, fault configs and cluster topologies.

   Like the accountant and the trace sink, the profiler is
   perturbation-free: probes only read [Sim.now] and mutate arrays,
   never schedule events or consult the RNG, so enabling profiling
   cannot change a run's results (gated by a byte-identity test). All
   aggregation state is plain data — safe to Marshal across forked
   sweep workers. *)

module Registry = Adios_obs.Registry

type req = {
  id : int;
  tx_at : int;
  cycles : int array;  (* Phase.count slots, cycles per phase *)
  mutable phase : Phase.t;
  mutable entered_at : int;
  mutable closed : bool;
      (* set by [finalize]: under [Tx_sync_spin] the reply can land at
         the client while the worker is still spinning on the TX CQE,
         so probes after finalization must be no-ops — those cycles are
         outside the request's end-to-end window by definition *)
}

(* One finalized measured request, retained for band aggregation and
   the top-K digest. *)
type sample = { sid : int; e2e : int; scycles : int array }

type t = {
  mutable finalized : int;
  mutable errored : int;
  mutable sum_violations : int;
  live_cycles : int array;
      (* accumulated over every finalized request (warmup and errors
         included): the monotone series behind adios_req_phase_* *)
  mutable samples : sample array;
  mutable len : int;
}

let none : sample = { sid = -1; e2e = 0; scycles = [||] }

let create () =
  {
    finalized = 0;
    errored = 0;
    sum_violations = 0;
    live_cycles = Array.make Phase.count 0;
    samples = Array.make 1024 none;
    len = 0;
  }

let attach _ ~id ~tx_at ~now =
  let r =
    {
      id;
      tx_at;
      cycles = Array.make Phase.count 0;
      phase = Phase.Req_wire;
      entered_at = tx_at;
      closed = false;
    }
  in
  (* admission closes the wire+RX segment and opens the queue wait *)
  r.cycles.(Phase.index Phase.Req_wire) <- now - tx_at;
  r.phase <- Phase.Queue;
  r.entered_at <- now;
  r

let[@zero_alloc] switch r ~now p =
  if (not r.closed) && Phase.index p <> Phase.index r.phase then begin
    let i = Phase.index r.phase in
    r.cycles.(i) <- r.cycles.(i) + (now - r.entered_at);
    r.phase <- p;
    r.entered_at <- now
  end

let push t s =
  if t.len = Array.length t.samples then begin
    let grown = Array.make (2 * t.len) none in
    Array.blit t.samples 0 grown 0 t.len;
    t.samples <- grown
  end;
  t.samples.(t.len) <- s;
  t.len <- t.len + 1

let finalize t r ~done_at ~errored ~measured =
  if not r.closed then begin
    let i = Phase.index r.phase in
    r.cycles.(i) <- r.cycles.(i) + (done_at - r.entered_at);
    r.closed <- true;
    t.finalized <- t.finalized + 1;
    if errored then t.errored <- t.errored + 1;
    let sum = ref 0 in
    for p = 0 to Phase.count - 1 do
      t.live_cycles.(p) <- t.live_cycles.(p) + r.cycles.(p);
      sum := !sum + r.cycles.(p)
    done;
    if !sum <> done_at - r.tx_at then
      t.sum_violations <- t.sum_violations + 1;
    if measured && not errored then
      push t { sid = r.id; e2e = done_at - r.tx_at; scycles = r.cycles }
  end

(* --- band aggregation --------------------------------------------------- *)

let band_count = 4
let band_names = [| "p0_p50"; "p50_p99"; "p99_p999"; "p999_max" |]

type band_stats = {
  band : string;
  requests : int;
  e2e_cycles : int;  (* total end-to-end cycles over the band *)
  phase_cycles : int array;  (* per-phase totals; sums to [e2e_cycles] *)
}

type slow = { id : int; e2e : int; cycles : int array }

type summary = {
  profiled : int;  (* requests finalized (warmup + errors included) *)
  measured : int;  (* post-warmup, non-errored: the banded population *)
  errored : int;
  violations : int;  (* requests whose phases failed to sum to e2e *)
  bands : band_stats array;  (* length [band_count], band_names order *)
  slowest : slow array;  (* top-K by e2e, descending *)
}

(* Order statistic with Histogram.percentile's convention: the value at
   rank max(1, ceil(p/100 * n)) of the ascending sample. *)
let rank_of ~n p =
  let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  if r < 1 then 1 else if r > n then n else r

(* requests in [summary]'s slowest list *)
let top_k = 32

let summary t =
  let n = t.len in
  let e2es = Array.init n (fun i -> t.samples.(i).e2e) in
  Array.sort Int.compare e2es;
  let thr p = if n = 0 then 0 else e2es.(rank_of ~n p - 1) in
  let p50 = thr 50. and p99 = thr 99. and p999 = thr 99.9 in
  let band_of e2e =
    if e2e <= p50 then 0
    else if e2e <= p99 then 1
    else if e2e <= p999 then 2
    else 3
  in
  let bands =
    Array.init band_count (fun b ->
        {
          band = band_names.(b);
          requests = 0;
          e2e_cycles = 0;
          phase_cycles = Array.make Phase.count 0;
        })
  in
  let requests = Array.make band_count 0 in
  let e2e_tot = Array.make band_count 0 in
  for i = 0 to n - 1 do
    let s = t.samples.(i) in
    let b = band_of s.e2e in
    requests.(b) <- requests.(b) + 1;
    e2e_tot.(b) <- e2e_tot.(b) + s.e2e;
    let st = bands.(b) in
    for p = 0 to Phase.count - 1 do
      st.phase_cycles.(p) <- st.phase_cycles.(p) + s.scycles.(p)
    done
  done;
  let bands =
    Array.mapi
      (fun b st ->
        { st with requests = requests.(b); e2e_cycles = e2e_tot.(b) })
      bands
  in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Int.compare t.samples.(b).e2e t.samples.(a).e2e in
      if c <> 0 then c else Int.compare t.samples.(a).sid t.samples.(b).sid)
    order;
  let k = if top_k < n then top_k else n in
  let slowest =
    Array.init k (fun i ->
        let s = t.samples.(order.(i)) in
        { id = s.sid; e2e = s.e2e; cycles = Array.copy s.scycles })
  in
  {
    profiled = t.finalized;
    measured = n;
    errored = t.errored;
    violations = t.sum_violations;
    bands;
    slowest;
  }

(* --- folded flamegraph stacks ------------------------------------------- *)

(* flamegraph.pl / speedscope folded format: one `frame;frame count`
   line per (band, phase) with nonzero cycles, rooted at [root]
   (typically "system/app"). Bands nest under the root so the graph
   reads "where do tail requests spend their cycles" at a glance. *)
let folded ~root s =
  let lines = ref [] in
  for b = band_count - 1 downto 0 do
    let st = s.bands.(b) in
    List.iter
      (fun p ->
        let c = st.phase_cycles.(Phase.index p) in
        if c > 0 then
          lines :=
            Printf.sprintf "%s;%s;%s %d" root st.band (Phase.name p) c
            :: !lines)
      Phase.all
  done;
  !lines

(* --- OpenMetrics -------------------------------------------------------- *)

let register_metrics t reg ~labels =
  List.iter
    (fun p ->
      Registry.counter reg ~name:"adios_req_phase_cycles_total"
        ~help:
          "critical-path cycles attributed to each request phase, summed \
           over finalized requests"
        ~labels:(labels @ [ ("phase", Phase.name p) ])
        (fun () -> t.live_cycles.(Phase.index p)))
    Phase.all;
  Registry.counter reg ~name:"adios_req_profiled_total"
    ~help:"requests whose phase segmentation was finalized" ~labels
    (fun () -> t.finalized);
  Registry.counter reg ~name:"adios_req_phase_sum_violations_total"
    ~help:
      "finalized requests whose phase cycles failed to sum to their \
       end-to-end latency (always 0 unless the profiler itself is broken)"
    ~labels
    (fun () -> t.sum_violations)
