module View = Adios_mem.View

type t = {
  keys : int;
  value_bytes : int;
  index_base : int;
  index_slots : int;
  data_base : int;
  slot_bytes : int;
}

let slot_bytes_of value_bytes = 8 + value_bytes

let rec pow2_at_least n v = if v >= n then v else pow2_at_least n (v * 2)

let layout ~keys ~value_bytes =
  let index_slots = pow2_at_least keys 1024 in
  let index_bytes = index_slots * 8 in
  let slot_bytes = slot_bytes_of value_bytes in
  (index_slots, index_bytes, slot_bytes)

let pages_needed ~keys ~value_bytes =
  let _, index_bytes, slot_bytes = layout ~keys ~value_bytes in
  (index_bytes + (keys * slot_bytes) + 4096 + 4095) / 4096

let expected_value t key =
  Label.make ~prefix:"row-" ~suffix:"-"
    ~fill:(Char.chr (Char.code 'a' + (key mod 26)))
    ~len:t.value_bytes key

let slot_addr t i = t.data_base + (i * t.slot_bytes)

(* the prefix index maps key -> slot address (dense keys: direct) *)
let index_addr t key = t.index_base + (key land (t.index_slots - 1)) * 8

let create view ~keys ~value_bytes =
  let index_slots, index_bytes, slot_bytes = layout ~keys ~value_bytes in
  let t =
    {
      keys;
      value_bytes;
      index_base = 0;
      index_slots;
      data_base = index_bytes;
      slot_bytes;
    }
  in
  for i = 0 to keys - 1 do
    let addr = slot_addr t i in
    View.write_u64 view addr (Int64.of_int i);
    View.write_string view (addr + 8) (expected_value t i);
    View.write_int view (index_addr t i) (addr + 1)
  done;
  t

let keys t = t.keys
let value_bytes t = t.value_bytes

(* A value is read where it lies: its range is touched, and the caller
   charges the copy in cycles. *)
let read_value t view addr =
  View.touch_range view ~addr ~len:t.value_bytes ~write:false

let get t view key =
  if key < 0 || key >= t.keys then -1
  else begin
    let ptr = View.read_int view (index_addr t key) in
    if ptr = 0 then -1
    else begin
      let addr = ptr - 1 in
      let stored = Int64.to_int (View.read_u64 view addr) in
      if stored <> key then -1
      else begin
        read_value t view (addr + 8);
        addr + 8
      end
    end
  end

let scan t view ?(on_row = fun _ _ -> ()) start n =
  let rec go i visited =
    if visited >= n || i >= t.keys then visited
    else begin
      let addr = slot_addr t i in
      let key = Int64.to_int (View.read_u64 view addr) in
      read_value t view (addr + 8);
      on_row key (addr + 8);
      go (i + 1) (visited + 1)
    end
  in
  go (max 0 start) 0
