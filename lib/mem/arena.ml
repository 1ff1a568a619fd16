(* Pages whose original bytes the journal already holds are flagged in
   [saved], so each page is copied at most once between rollbacks. *)
type journal = { saved : Bytes.t; mutable log : (int * Bytes.t) list }

type t = {
  data : Bytes.t;
  pages : int;
  page_size : int;
  mutable journal : journal option;
}

let create ~pages ~page_size =
  {
    data = Bytes.make (pages * page_size) '\000';
    pages;
    page_size;
    journal = None;
  }

let pages t = t.pages
let page_size t = t.page_size
let size_bytes t = Bytes.length t.data
let page_of_addr t addr = addr / t.page_size

(* Called by every write before it stores: the first write to a page
   since the last rollback copies the page into the journal. *)
let note t addr len =
  match t.journal with
  | None -> ()
  | Some j ->
    if len > 0 then
      for page = addr / t.page_size to (addr + len - 1) / t.page_size do
        if Bytes.get j.saved page = '\000' then begin
          Bytes.set j.saved page '\001';
          j.log <-
            (page, Bytes.sub t.data (page * t.page_size) t.page_size) :: j.log
        end
      done

let journal t =
  if Option.is_none t.journal then
    t.journal <- Some { saved = Bytes.make t.pages '\000'; log = [] }

let rollback t =
  match t.journal with
  | None -> ()
  | Some j ->
    List.iter
      (fun (page, bytes) ->
        Bytes.blit bytes 0 t.data (page * t.page_size) t.page_size;
        Bytes.set j.saved page '\000')
      j.log;
    j.log <- []

let get_u8 t addr = Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  note t addr 1;
  Bytes.set t.data addr (Char.chr (v land 0xff))

let get_u64 t addr = Bytes.get_int64_le t.data addr

let set_u64 t addr v =
  note t addr 8;
  Bytes.set_int64_le t.data addr v

let get_int t addr = Int64.to_int (get_u64 t addr)
let set_int t addr v = set_u64 t addr (Int64.of_int v)

let read_blob t addr len = Bytes.sub t.data addr len

let write_blob t addr b =
  note t addr (Bytes.length b);
  Bytes.blit b 0 t.data addr (Bytes.length b)

let blit_string t addr s =
  note t addr (String.length s);
  Bytes.blit_string s 0 t.data addr (String.length s)

let in_range t addr len =
  addr >= 0 && len >= 0 && addr + len <= Bytes.length t.data

let equal_string t addr len s =
  if not (in_range t addr len) then
    invalid_arg "Arena.equal_string: range outside the arena";
  len = String.length s
  &&
  let i = ref 0 in
  while
    !i < len && Bytes.unsafe_get t.data (addr + !i) = String.unsafe_get s !i
  do
    incr i
  done;
  !i = len

let sq_distance t addr q =
  let n = Bytes.length q in
  if not (in_range t addr n) then
    invalid_arg "Arena.sq_distance: range outside the arena";
  let acc = ref 0 in
  for j = 0 to n - 1 do
    let d =
      Char.code (Bytes.unsafe_get q j)
      - Char.code (Bytes.unsafe_get t.data (addr + j))
    in
    acc := !acc + (d * d)
  done;
  !acc
