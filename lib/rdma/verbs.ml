type opcode = Read | Write | Send

type 'a completion = {
  wr_id : int;
  opcode : opcode;
  bytes : int;
  posted_at : int;
  completed_at : int;
  user : 'a;
}

module Cq = struct
  (* Power-of-two ring buffer. The drain path hands completions straight
     to a callback, so steady-state CQ traffic allocates nothing beyond
     the completion records themselves. *)
  type 'a t = {
    mutable buf : 'a completion array;
    mutable head : int; (* index of the oldest entry *)
    mutable len : int;
    mutable notify : (unit -> unit) option;
  }

  let create () = { buf = [||]; head = 0; len = 0; notify = None }
  let set_notify t f = t.notify <- Some f

  (* Double the ring, unrolling the wrap; [c] seeds the fresh slots so no
     dummy completion is needed. *)
  let[@cold][@inline never] grow t c =
    let cap = Array.length t.buf in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let buf = Array.make ncap c in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) land (cap - 1))
    done;
    t.buf <- buf;
    t.head <- 0

  let[@zero_alloc] push t c =
    if t.len = Array.length t.buf then grow t c;
    let mask = Array.length t.buf - 1 in
    Array.unsafe_set t.buf ((t.head + t.len) land mask) c;
    t.len <- t.len + 1;
    match t.notify with None -> () | Some f -> f ()

  let[@zero_alloc] drain t f =
    (* [f] may post work that completes synchronously back into this CQ
       (and even grow the ring); re-reading [len] and the ring each
       iteration keeps such entries in the pass. *)
    while t.len > 0 do
      let mask = Array.length t.buf - 1 in
      let c = Array.unsafe_get t.buf (t.head land mask) in
      t.head <- (t.head + 1) land mask;
      t.len <- t.len - 1;
      f c
    done

  let poll t ~max =
    let rec go acc n =
      if n = 0 || t.len = 0 then List.rev acc
      else begin
        let mask = Array.length t.buf - 1 in
        let c = Array.unsafe_get t.buf (t.head land mask) in
        t.head <- (t.head + 1) land mask;
        t.len <- t.len - 1;
        go (c :: acc) (n - 1)
      end
    in
    go [] max

  let depth t = t.len
end
