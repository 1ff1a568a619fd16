type t = {
  arena : Arena.t;
  touch : addr:int -> len:int -> write:bool -> unit;
}

let make arena ~touch = { arena; touch }
let direct arena = { arena; touch = (fun ~addr:_ ~len:_ ~write:_ -> ()) }
let arena t = t.arena

let touch_range t ~addr ~len ~write = t.touch ~addr ~len ~write

let read_u8 t addr =
  t.touch ~addr ~len:1 ~write:false;
  Arena.get_u8 t.arena addr

let read_u64 t addr =
  t.touch ~addr ~len:8 ~write:false;
  Arena.get_u64 t.arena addr

let read_int t addr =
  t.touch ~addr ~len:8 ~write:false;
  Arena.get_int t.arena addr

let read_blob t addr len =
  t.touch ~addr ~len ~write:false;
  Arena.read_blob t.arena addr len

let equal_string t addr len s =
  t.touch ~addr ~len ~write:false;
  Arena.equal_string t.arena addr len s

let sq_distance t addr q =
  t.touch ~addr ~len:(Bytes.length q) ~write:false;
  Arena.sq_distance t.arena addr q

let write_u8 t addr v =
  t.touch ~addr ~len:1 ~write:true;
  Arena.set_u8 t.arena addr v

let write_u64 t addr v =
  t.touch ~addr ~len:8 ~write:true;
  Arena.set_u64 t.arena addr v

let write_int t addr v =
  t.touch ~addr ~len:8 ~write:true;
  Arena.set_int t.arena addr v

let write_string t addr s =
  t.touch ~addr ~len:(String.length s) ~write:true;
  Arena.blit_string t.arena addr s
