type layout = {
  name : string;
  mtu : int;
  ctx_bytes : int;
  stack_bytes : int;
  extra_stacks : int;
  stack_unit : int;
}

let unithread_layout =
  let ctx_bytes = Context.context_bytes Context.Unithread in
  {
    name = "unithread (universal stack)";
    mtu = 1500;
    ctx_bytes;
    stack_bytes = 4096 - 1500 - ctx_bytes;
    extra_stacks = 0;
    stack_unit = 0;
  }

let shinjuku_layout =
  let ctx_bytes = Context.context_bytes Context.Ucontext in
  {
    name = "shinjuku (ucontext + 2 stacks)";
    mtu = 1500;
    ctx_bytes;
    stack_bytes = 4096 - 1500 - ctx_bytes;
    extra_stacks = 2;
    stack_unit = 4096;
  }

let bytes_per_buffer l =
  let base = l.mtu + l.ctx_bytes + l.stack_bytes in
  (* round the primary buffer to 4 KB as both systems allocate pages *)
  let round_4k v = (v + 4095) / 4096 * 4096 in
  round_4k base + (l.extra_stacks * l.stack_unit)

(* Ids never handed out are [next .. count - 1]; returned ids wait on an
   int stack that [alloc] pops first. That is the order of one free
   list holding 0, 1, 2, ... with each freed id pushed on top, without
   building that list. *)
type t = {
  layout : layout;
  count : int;
  mutable next : int;
  mutable returned : int array;
  mutable nreturned : int;
  allocated : Bytes.t; (* 0 free / 1 in use *)
  mutable in_use : int;
  mutable high_watermark : int;
}

let create ~count layout =
  {
    layout;
    count;
    next = 0;
    returned = [||];
    nreturned = 0;
    allocated = Bytes.make count '\000';
    in_use = 0;
    high_watermark = 0;
  }

let take t id =
  Bytes.set t.allocated id '\001';
  t.in_use <- t.in_use + 1;
  if t.in_use > t.high_watermark then t.high_watermark <- t.in_use;
  id

let alloc t =
  if t.nreturned > 0 then begin
    t.nreturned <- t.nreturned - 1;
    take t t.returned.(t.nreturned)
  end
  else if t.next < t.count then begin
    t.next <- t.next + 1;
    take t (t.next - 1)
  end
  else -1

(* Doubling the returned-id stack is rare, so keep it out of [free]'s
   inlined copies: [dispatcher_step] frees a buffer per reply. *)
let[@cold][@inline never] grow_returned t =
  let grown = Array.make (max 64 (2 * t.nreturned)) 0 in
  Array.blit t.returned 0 grown 0 t.nreturned;
  t.returned <- grown

let free t id =
  if id < 0 || id >= t.count then invalid_arg "Buffer_pool.free: bad id";
  if Bytes.get t.allocated id = '\000' then
    invalid_arg "Buffer_pool.free: double free";
  Bytes.set t.allocated id '\000';
  t.in_use <- t.in_use - 1;
  if t.nreturned = Array.length t.returned then grow_returned t;
  t.returned.(t.nreturned) <- id;
  t.nreturned <- t.nreturned + 1

let count t = t.count
let in_use t = t.in_use
let high_watermark t = t.high_watermark
let total_bytes t = t.count * bytes_per_buffer t.layout
