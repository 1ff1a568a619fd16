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
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x100000001b3 land max_int)
    s;
  !h

let key_string t i =
  let base = Printf.sprintf "key-%012d" i in
  let pad = t.key_bytes - String.length base in
  if pad <= 0 then String.sub base 0 t.key_bytes
  else base ^ String.make pad 'k'

let value_string t i =
  let base = Printf.sprintf "value-%012d-" i in
  let fill = t.value_bytes - String.length base in
  if fill <= 0 then String.sub base 0 t.value_bytes
  else base ^ String.make fill (Char.chr (Char.code 'a' + (i mod 26)))

(* Entry layout: [key_len:u32][key][val_len:u32][value] *)
let write_entry t view addr key value =
  View.write_u64 view addr (Int64.of_int (String.length key));
  View.write_string view (addr + 4) key;
  View.write_u64 view
    (addr + 4 + t.key_bytes)
    (Int64.of_int (String.length value));
  View.write_string view (addr + 8 + t.key_bytes) value

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

let entry_key t view addr =
  let len = min (read_len view addr) t.key_bytes in
  View.read_string view (addr + 4) len

let entry_value t view addr =
  let len = min (read_len view (addr + 4 + t.key_bytes)) t.value_bytes in
  View.read_string view (addr + 8 + t.key_bytes) len

let get t view key =
  let mask = t.buckets - 1 in
  let rec probe i n =
    if n > t.buckets then None
    else begin
      let slot = bucket_addr t (i land mask) in
      let v = View.read_int view slot in
      if v = 0 then None
      else begin
        let addr = v - 1 in
        if String.equal (entry_key t view addr) key then
          Some (entry_value t view addr)
        else probe (i + 1) (n + 1)
      end
    end
  in
  probe (hash key) 0

let put t view key value =
  let mask = t.buckets - 1 in
  let rec probe i n =
    if n > t.buckets then false
    else begin
      let slot = bucket_addr t (i land mask) in
      let v = View.read_int view slot in
      if v = 0 then false
      else begin
        let addr = v - 1 in
        if String.equal (entry_key t view addr) key then begin
          let cap = read_len view (addr + 4 + t.key_bytes) in
          if String.length value > cap then false
          else begin
            View.write_u64 view
              (addr + 4 + t.key_bytes)
              (Int64.of_int (String.length value));
            View.write_string view (addr + 8 + t.key_bytes) value;
            true
          end
        end
        else probe (i + 1) (n + 1)
      end
    end
  in
  probe (hash key) 0

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
