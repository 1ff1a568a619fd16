(* Allocation-free scheduler core.

   Every pending event is a *cell* in a pool of parallel flat arrays
   (time, seq, action, link, generation, dead flag). Cells are recycled
   through a free list, so steady-state scheduling allocates nothing:
   a push writes a handful of scalar slots, a pop reads them back.

   Two structures index the pool, merged on pop by (time, seq):

   - a timer wheel of [wheel_size] one-cycle slots for events within
     [wheel_size] cycles of now — the dense short-horizon traffic (NIC
     serialization, CQE latency, software costs, sampler ticks). Insert
     is O(1); the next occupied slot is found through a 32-bit
     occupancy bitmap and cached in [wh_floor]. Because every pending
     wheel time lies in [now, now + wheel_size), a slot holds cells of
     exactly one timestamp, and FIFO append equals seq order — which is
     what keeps replay byte-identical with the old single-heap
     scheduler, whatever the wheel's size.

   - a flat binary heap of cell indices for the sparse far events
     (fetch timeouts, load-generator gaps at low load, rare jitter).
     Keys are mirrored into parallel [h_time]/[h_seq] arrays so sift
     compares never chase the pool.

   Cancellation ([timer_at]/[cancel]) is O(1): the token packs the cell
   index with the cell's allocation generation; cancelling marks the
   cell dead and the structures purge dead cells lazily when they reach
   the head. A cancelled timer never runs and never counts as a
   processed event. *)

(* 2^14 slots: the slot and tail arrays take 256 KB and the bitmap
   4 KB, small enough to stay in cache, where 2^16 slots (1 MB) made
   an append's tail load miss. The golden specs keep 8-78 events
   pending on average, and 0.12% of array-fault's schedules fall past
   the horizon into the heap (DESIGN.md §8). *)
let wheel_bits = 14
let wheel_size = 1 lsl wheel_bits (* 16384 cycles = 8.2 us horizon *)
let wheel_mask = wheel_size - 1
let word_count = wheel_size lsr 5 (* 32 occupancy bits per bitmap word *)

(* Pool cells are addressed by [idx_bits]-bit indices inside timer
   tokens; the rest of the word holds the generation. *)
let idx_bits = 25
let max_cells = 1 lsl idx_bits

let noop () = ()

(* de Bruijn count-trailing-zeros over a 32-bit word *)
let debruijn32 = 0x077CB531

let ctz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn32 lsl i) land 0xffffffff) lsr 27) <- i
  done;
  t

let ctz32 v = Array.unsafe_get ctz_table ((((v land -v) * debruijn32) land 0xffffffff) lsr 27)

type t = {
  mutable now : Clock.cycles;
  mutable seq : int;
  mutable processed : int;
  mutable clamped : int;
  mutable live : int; (* scheduled, not yet fired or cancelled *)
  (* --- event cell pool ------------------------------------------------ *)
  mutable c_time : int array;
  mutable c_seq : int array;
  mutable c_act : (unit -> unit) array;
  mutable c_next : int array; (* slot chain / free-list link *)
  mutable c_gen : int array; (* bumped on free; stales old tokens *)
  mutable c_dead : Bytes.t; (* '\001' = cancelled, awaiting purge *)
  mutable free_head : int;
  mutable cap : int;
  (* --- far-event heap (cell indices, keys mirrored flat) -------------- *)
  mutable h_time : int array;
  mutable h_seq : int array;
  mutable h_cell : int array;
  mutable h_len : int;
  (* --- timer wheel ----------------------------------------------------- *)
  slots : int array; (* head cell per slot, -1 = empty *)
  tails : int array; (* tail cell per slot, for FIFO append *)
  bitmap : int array; (* slot occupancy, 32 slots per word *)
  mutable wh_cells : int; (* cells linked into the wheel (incl. dead) *)
  mutable wh_floor : int; (* lower bound on the earliest wheel time *)
  mutable wh_slot : int; (* slot found by the last successful peek *)
}

let create () =
  {
    now = 0;
    seq = 0;
    processed = 0;
    clamped = 0;
    live = 0;
    c_time = [||];
    c_seq = [||];
    c_act = [||];
    c_next = [||];
    c_gen = [||];
    c_dead = Bytes.empty;
    free_head = -1;
    cap = 0;
    h_time = [||];
    h_seq = [||];
    h_cell = [||];
    h_len = 0;
    slots = Array.make wheel_size (-1);
    tails = Array.make wheel_size (-1);
    bitmap = Array.make word_count 0;
    wh_cells = 0;
    wh_floor = 0;
    wh_slot = 0;
  }

let now sim = sim.now

(* --- cell pool ---------------------------------------------------------- *)

let grow_pool sim =
  let cap = sim.cap in
  let ncap = if cap = 0 then 256 else cap * 2 in
  if ncap > max_cells then failwith "Sim: event pool exceeds 2^25 cells";
  let c_time = Array.make ncap 0 in
  let c_seq = Array.make ncap 0 in
  let c_act = Array.make ncap noop in
  let c_next = Array.make ncap (-1) in
  let c_gen = Array.make ncap 0 in
  let c_dead = Bytes.make ncap '\000' in
  Array.blit sim.c_time 0 c_time 0 cap;
  Array.blit sim.c_seq 0 c_seq 0 cap;
  Array.blit sim.c_act 0 c_act 0 cap;
  Array.blit sim.c_next 0 c_next 0 cap;
  Array.blit sim.c_gen 0 c_gen 0 cap;
  Bytes.blit sim.c_dead 0 c_dead 0 cap;
  sim.c_time <- c_time;
  sim.c_seq <- c_seq;
  sim.c_act <- c_act;
  sim.c_next <- c_next;
  sim.c_gen <- c_gen;
  sim.c_dead <- c_dead;
  (* thread the fresh cells onto the free list *)
  for i = cap to ncap - 2 do
    c_next.(i) <- i + 1
  done;
  c_next.(ncap - 1) <- sim.free_head;
  sim.free_head <- cap;
  sim.cap <- ncap

let alloc_cell sim ~time act =
  if sim.free_head < 0 then grow_pool sim;
  let c = sim.free_head in
  sim.free_head <- Array.unsafe_get sim.c_next c;
  sim.seq <- sim.seq + 1;
  Array.unsafe_set sim.c_time c time;
  Array.unsafe_set sim.c_seq c sim.seq;
  Array.unsafe_set sim.c_act c act;
  Array.unsafe_set sim.c_next c (-1);
  c

let free_cell sim c =
  Array.unsafe_set sim.c_act c noop;
  (* a live (never-cancelled) cell already has its dead byte clear *)
  Bytes.unsafe_set sim.c_dead c '\000';
  Array.unsafe_set sim.c_gen c (Array.unsafe_get sim.c_gen c + 1);
  Array.unsafe_set sim.c_next c sim.free_head;
  sim.free_head <- c

let cell_dead sim c = Bytes.unsafe_get sim.c_dead c <> '\000'

(* --- far-event heap ----------------------------------------------------- *)

let heap_grow sim =
  let cap = Array.length sim.h_time in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let h_time = Array.make ncap 0 in
  let h_seq = Array.make ncap 0 in
  let h_cell = Array.make ncap 0 in
  Array.blit sim.h_time 0 h_time 0 sim.h_len;
  Array.blit sim.h_seq 0 h_seq 0 sim.h_len;
  Array.blit sim.h_cell 0 h_cell 0 sim.h_len;
  sim.h_time <- h_time;
  sim.h_seq <- h_seq;
  sim.h_cell <- h_cell

let heap_push sim ~time ~seq c =
  if sim.h_len = Array.length sim.h_time then heap_grow sim;
  let ht = sim.h_time and hs = sim.h_seq and hc = sim.h_cell in
  let i = ref sim.h_len in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get ht parent in
    if time < pt || (time = pt && seq < Array.unsafe_get hs parent) then begin
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i (Array.unsafe_get hs parent);
      Array.unsafe_set hc !i (Array.unsafe_get hc parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hc !i c;
  sim.h_len <- sim.h_len + 1

(* Remove the heap root and return its cell; caller checked h_len > 0. *)
let heap_pop_top sim =
  let ht = sim.h_time and hs = sim.h_seq and hc = sim.h_cell in
  let top = Array.unsafe_get hc 0 in
  let len = sim.h_len - 1 in
  sim.h_len <- len;
  if len > 0 then begin
    let mt = Array.unsafe_get ht len in
    let ms = Array.unsafe_get hs len in
    let mc = Array.unsafe_get hc len in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let small =
          if r < len then begin
            let lt = Array.unsafe_get ht l and rt = Array.unsafe_get ht r in
            if rt < lt || (rt = lt && Array.unsafe_get hs r < Array.unsafe_get hs l)
            then r
            else l
          end
          else l
        in
        let st = Array.unsafe_get ht small in
        if st < mt || (st = mt && Array.unsafe_get hs small < ms) then begin
          Array.unsafe_set ht !i st;
          Array.unsafe_set hs !i (Array.unsafe_get hs small);
          Array.unsafe_set hc !i (Array.unsafe_get hc small);
          i := small
        end
        else continue := false
      end
    done;
    Array.unsafe_set ht !i mt;
    Array.unsafe_set hs !i ms;
    Array.unsafe_set hc !i mc
  end;
  top

(* Earliest live heap time ([max_int] when drained), purging cancelled
   cells that surface at the root. *)
let rec heap_top sim =
  if sim.h_len = 0 then max_int
  else begin
    let c = Array.unsafe_get sim.h_cell 0 in
    if cell_dead sim c then begin
      ignore (heap_pop_top sim);
      free_cell sim c;
      heap_top sim
    end
    else Array.unsafe_get sim.h_time 0
  end

(* --- timer wheel --------------------------------------------------------- *)

let wheel_add sim t c =
  let s = t land wheel_mask in
  let tail = Array.unsafe_get sim.tails s in
  if tail < 0 then begin
    Array.unsafe_set sim.slots s c;
    let w = s lsr 5 in
    Array.unsafe_set sim.bitmap w
      (Array.unsafe_get sim.bitmap w lor (1 lsl (s land 31)))
  end
  else Array.unsafe_set sim.c_next tail c;
  Array.unsafe_set sim.tails s c;
  if sim.wh_cells = 0 || t < sim.wh_floor then sim.wh_floor <- t;
  sim.wh_cells <- sim.wh_cells + 1

(* Unlink and return the head cell of slot [s]; caller checked non-empty. *)
let wheel_unlink_head sim s =
  let c = Array.unsafe_get sim.slots s in
  let n = Array.unsafe_get sim.c_next c in
  Array.unsafe_set sim.slots s n;
  if n < 0 then begin
    Array.unsafe_set sim.tails s (-1);
    let w = s lsr 5 in
    Array.unsafe_set sim.bitmap w
      (Array.unsafe_get sim.bitmap w land lnot (1 lsl (s land 31)))
  end;
  sim.wh_cells <- sim.wh_cells - 1;
  c

(* First occupied slot at circular distance >= 0 from [p0]; the caller
   guarantees at least one bit is set. A while loop rather than an inner
   recursive function: a local [let rec] capturing [sim] is a closure
   allocation on the hottest path in the engine (the zero-alloc lint
   rule walks this body). *)
let wheel_scan sim p0 =
  let w0 = p0 lsr 5 in
  let bits = Array.unsafe_get sim.bitmap w0 lsr (p0 land 31) in
  if bits <> 0 then (p0 + ctz32 bits) land wheel_mask
  else begin
    let k = ref 1 in
    let found = ref (-1) in
    while !found < 0 do
      let w = (w0 + !k) land (word_count - 1) in
      let b = Array.unsafe_get sim.bitmap w in
      if b <> 0 then found := (w lsl 5) + ctz32 b else incr k
    done;
    !found
  end

(* Earliest live wheel time ([max_int] when drained), purging cancelled
   cells at slot heads. Caches the found slot in [wh_slot] and tightens
   [wh_floor] so the bitmap scan restarts where it left off. *)
let rec wheel_peek sim =
  if sim.wh_cells = 0 then max_int
  else begin
    let base = if sim.wh_floor > sim.now then sim.wh_floor else sim.now in
    let p0 = base land wheel_mask in
    let s = wheel_scan sim p0 in
    let t = base + ((s - p0) land wheel_mask) in
    (* purge cancelled cells at the slot head; a loop, not an inner
       closure, for the same zero-alloc reason as [wheel_scan] *)
    let purging = ref true in
    while !purging do
      let c = Array.unsafe_get sim.slots s in
      if c >= 0 && cell_dead sim c then begin
        ignore (wheel_unlink_head sim s);
        free_cell sim c
      end
      else purging := false
    done;
    if Array.unsafe_get sim.slots s < 0 then begin
      (* the slot held only cancelled cells: advance past it and rescan *)
      sim.wh_floor <- t + 1;
      wheel_peek sim
    end
    else begin
      sim.wh_floor <- t;
      sim.wh_slot <- s;
      t
    end
  end

(* --- scheduling ---------------------------------------------------------- *)

let add_event sim t f =
  let c = alloc_cell sim ~time:t f in
  if t - sim.now < wheel_size then wheel_add sim t c
  else heap_push sim ~time:t ~seq:(Array.unsafe_get sim.c_seq c) c;
  sim.live <- sim.live + 1;
  c

let schedule_at sim t f =
  let t =
    if t < sim.now then begin
      sim.clamped <- sim.clamped + 1;
      sim.now
    end
    else t
  in
  ignore (add_event sim t f)

let schedule sim ~delay f = schedule_at sim (sim.now + delay) f

(* --- cancellable timers --------------------------------------------------- *)

type timer = int

let timer_at sim t f =
  let t =
    if t < sim.now then begin
      sim.clamped <- sim.clamped + 1;
      sim.now
    end
    else t
  in
  let c = add_event sim t f in
  (Array.unsafe_get sim.c_gen c lsl idx_bits) lor c

let timer_after sim ~delay f = timer_at sim (sim.now + delay) f

let timer_pending sim token =
  let c = token land (max_cells - 1) in
  c < sim.cap && sim.c_gen.(c) = token asr idx_bits && not (cell_dead sim c)

let cancel sim token =
  let c = token land (max_cells - 1) in
  if c < sim.cap && sim.c_gen.(c) = token asr idx_bits && not (cell_dead sim c)
  then begin
    Bytes.unsafe_set sim.c_dead c '\001';
    sim.live <- sim.live - 1
  end

(* --- execution ------------------------------------------------------------ *)

let step sim =
  let wt = wheel_peek sim in
  let ht = heap_top sim in
  if wt = max_int && ht = max_int then false
  else begin
    (* merge by (time, seq); seqs are globally unique so ties resolve *)
    let use_wheel =
      wt < ht
      || wt = ht
         && Array.unsafe_get sim.c_seq (Array.unsafe_get sim.slots sim.wh_slot)
            < Array.unsafe_get sim.h_seq 0
    in
    let c =
      if use_wheel then wheel_unlink_head sim sim.wh_slot
      else heap_pop_top sim
    in
    let t = Array.unsafe_get sim.c_time c in
    let f = Array.unsafe_get sim.c_act c in
    free_cell sim c;
    sim.live <- sim.live - 1;
    sim.now <- t;
    sim.processed <- sim.processed + 1;
    f ();
    true
  end

let run sim = while step sim do () done

let run_until sim limit =
  let continue = ref true in
  while !continue do
    let wt = wheel_peek sim in
    let ht = heap_top sim in
    let next = if wt < ht then wt else ht in
    if next <= limit then ignore (step sim)
    else begin
      continue := false;
      if sim.now < limit then sim.now <- limit
    end
  done

let pending sim = sim.live
let events_processed sim = sim.processed
let clamped_schedules sim = sim.clamped
