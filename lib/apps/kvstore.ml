module View = Adios_mem.View
module Arena = Adios_mem.Arena

type t = {
  buckets : int; (* power of two *)
  bucket_base : int; (* byte offset of the bucket array *)
  heap_base : int; (* start of the entry heap *)
  mutable heap_next : int;
  key_bytes : int;
  value_bytes : int;
  mutable keys : int;
}

let entry_bytes ~key_bytes ~value_bytes = 4 + key_bytes + 4 + value_bytes

let rec pow2_at_least n v = if v >= n then v else pow2_at_least n (v * 2)

let pages_needed ~keys ~key_bytes ~value_bytes =
  let buckets = pow2_at_least (2 * keys) 1024 in
  let bytes =
    (buckets * 8) + (keys * entry_bytes ~key_bytes ~value_bytes) + 4096
  in
  (bytes + 4095) / 4096

(* FNV-1a over the key string (63-bit fold of the 64-bit constants). *)
let hash s =
  let h = ref 0x2bf29ce484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
         land max_int
  done;
  !h

let key_string t i =
  Label.make ~prefix:"key-" ~suffix:"" ~fill:'k' ~len:t.key_bytes i

let value_string t i =
  Label.make ~prefix:"value-" ~suffix:"-"
    ~fill:(Char.chr (Char.code 'a' + (i mod 26)))
    ~len:t.value_bytes i

(* Entry layout: [key_len:u32][key][val_len:u32][value] *)
let value_len_addr t entry = entry + 4 + t.key_bytes
let value_addr t entry = entry + 8 + t.key_bytes

let write_entry t view addr key value =
  View.write_u64 view addr (Int64.of_int (String.length key));
  View.write_string view (addr + 4) key;
  View.write_u64 view (value_len_addr t addr)
    (Int64.of_int (String.length value));
  View.write_string view (value_addr t addr) value

(* bucket slot [i] holds entry address + 1, or 0 when empty *)
let bucket_addr t i = t.bucket_base + (i * 8)

let insert t view key value =
  let mask = t.buckets - 1 in
  let rec probe i =
    let slot = bucket_addr t (i land mask) in
    let v = View.read_int view slot in
    if v = 0 then begin
      let addr = t.heap_next in
      t.heap_next <- t.heap_next + entry_bytes ~key_bytes:t.key_bytes ~value_bytes:t.value_bytes;
      write_entry t view addr key value;
      View.write_int view slot (addr + 1);
      t.keys <- t.keys + 1
    end
    else probe (i + 1)
  in
  probe (hash key)

let read_len view addr = Int64.to_int (View.read_u64 view addr) land 0xffffffff

let key_is t view entry key =
  let len = min (read_len view entry) t.key_bytes in
  View.equal_string view (entry + 4) len key

let get t view key =
  let mask = t.buckets - 1 in
  let rec probe i n =
    if n > t.buckets then -1
    else begin
      let v = View.read_int view (bucket_addr t (i land mask)) in
      if v = 0 then -1
      else if key_is t view (v - 1) key then v - 1
      else probe (i + 1) (n + 1)
    end
  in
  probe (hash key) 0

let read_value t view entry =
  let len = min (read_len view (value_len_addr t entry)) t.value_bytes in
  View.touch_range view ~addr:(value_addr t entry) ~len ~write:false;
  len

let put t view key value =
  let entry = get t view key in
  if entry < 0 || String.length value > read_len view (value_len_addr t entry)
  then false
  else begin
    View.write_u64 view (value_len_addr t entry)
      (Int64.of_int (String.length value));
    View.write_string view (value_addr t entry) value;
    true
  end

let create view ~keys ~key_bytes ~value_bytes =
  let buckets = pow2_at_least (2 * keys) 1024 in
  let t =
    {
      buckets;
      bucket_base = 0;
      heap_base = buckets * 8;
      heap_next = buckets * 8;
      key_bytes;
      value_bytes;
      keys = 0;
    }
  in
  ignore t.heap_base;
  for i = 0 to keys - 1 do
    insert t view (key_string t i) (value_string t i)
  done;
  t

let keys t = t.keys
let copy t = { t with keys = t.keys }
