module Stride_detector = struct
  (* fault deltas the majority vote runs over *)
  let window = 8

  type t = {
    deltas : int array; (* ring of recent fault deltas *)
    mutable len : int;
    mutable head : int;
    mutable last_page : int; (* -1 before the first fault *)
  }

  let create () =
    {
      deltas = Array.make window 0;
      len = 0;
      head = 0;
      last_page = -1;
    }

  let reset t =
    t.len <- 0;
    t.head <- 0;
    t.last_page <- -1

  (* Boyer-Moore majority vote over the delta window, then verify the
     candidate really holds a strict majority. *)
  let majority t =
    if t.len < 2 then None
    else begin
      let candidate = ref 0 and count = ref 0 in
      for i = 0 to t.len - 1 do
        let d = t.deltas.(i) in
        if !count = 0 then begin
          candidate := d;
          count := 1
        end
        else if d = !candidate then incr count
        else decr count
      done;
      let occurrences = ref 0 in
      for i = 0 to t.len - 1 do
        if t.deltas.(i) = !candidate then incr occurrences
      done;
      if !candidate <> 0 && 2 * !occurrences > t.len then Some !candidate
      else None
    end

  let record t page =
    let result =
      if t.last_page < 0 then None
      else begin
        let delta = page - t.last_page in
        t.deltas.(t.head) <- delta;
        t.head <- (t.head + 1) mod window;
        if t.len < window then t.len <- t.len + 1;
        majority t
      end
    in
    t.last_page <- page;
    result
end

type stats = { mutable issued : int; mutable useful : int; mutable wasted : int }

let make_stats () = { issued = 0; useful = 0; wasted = 0 }
