module App = Adios_core.App
module View = Adios_mem.View

let page_size = 4096
let capacity = 120 (* keys per node; fits one 4 KB page with headers *)

(* node layout (byte offsets within the page); the key and child areas
   include one overflow slot each because a node briefly holds
   capacity+1 keys (capacity+2 children) while splitting:
   0:tag (1=leaf) | 8:nkeys | 16:keys[121] | vals-or-children[122] | next *)
let off_tag = 0
let off_nkeys = 8
let off_keys = 16
let off_vals = off_keys + ((capacity + 1) * 8)
let off_next = off_vals + ((capacity + 2) * 8)

type t = {
  region_base : int;
  region_pages : int;
  mutable next_page : int;
  mutable root : int; (* node address *)
  mutable size : int;
  mutable height : int;
}

let alloc_node t view ~leaf =
  if t.next_page >= t.region_pages then
    App.bad_request "Btree: node region exhausted (%d pages)" t.region_pages;
  let addr = t.region_base + (t.next_page * page_size) in
  t.next_page <- t.next_page + 1;
  View.write_int view (addr + off_tag) (if leaf then 1 else 0);
  View.write_int view (addr + off_nkeys) 0;
  View.write_int view (addr + off_next) 0;
  addr

let create view ~region_base ~region_pages =
  if region_base mod page_size <> 0 then
    invalid_arg "Btree.create: region_base not page-aligned";
  let t =
    { region_base; region_pages; next_page = 0; root = 0; size = 0; height = 1 }
  in
  t.root <- alloc_node t view ~leaf:true;
  t

let is_leaf view node = View.read_int view (node + off_tag) = 1
let nkeys view node = View.read_int view (node + off_nkeys)
let key_at view node i = View.read_int view (node + off_keys + (i * 8))
let val_at view node i = View.read_int view (node + off_vals + (i * 8))
let set_key view node i k = View.write_int view (node + off_keys + (i * 8)) k
let set_val view node i v = View.write_int view (node + off_vals + (i * 8)) v
let set_nkeys view node n = View.write_int view (node + off_nkeys) n
(* the next-leaf pointer is stored as addr+1 so that 0 means "none"
   even though address 0 is a valid node *)
let next_leaf view node = View.read_int view (node + off_next) - 1
let set_next view node addr = View.write_int view (node + off_next) (addr + 1)

(* first index with key_at >= key, in [0, n] *)
let lower_bound view node key =
  let n = nkeys view node in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key_at view node mid < key then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

(* child index for descending: first i with key < keys[i], else n *)
let child_index view node key =
  let n = nkeys view node in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key <= key_at view node mid then go lo mid else go (mid + 1) hi
    end
  in
  let i = go 0 n in
  if i < n && key_at view node i = key then i + 1 else i

let rec find_leaf view node key =
  if is_leaf view node then node
  else begin
    let i = child_index view node key in
    find_leaf view (val_at view node i) key
  end

let find t view key =
  let leaf = find_leaf view t.root key in
  let i = lower_bound view leaf key in
  if i < nkeys view leaf && key_at view leaf i = key then
    Some (val_at view leaf i)
  else None

(* shift entries [i, n) right by one *)
let shift_right view node i n =
  for j = n - 1 downto i do
    set_key view node (j + 1) (key_at view node j);
    set_val view node (j + 1) (val_at view node j)
  done

let move_range view ~src ~dst ~src_pos ~dst_pos ~count =
  for j = 0 to count - 1 do
    set_key view dst (dst_pos + j) (key_at view src (src_pos + j));
    set_val view dst (dst_pos + j) (val_at view src (src_pos + j))
  done

(* returns Some (separator, new_right_node) when the node split *)
let rec insert_rec t view node ~key ~value =
  if is_leaf view node then begin
    let n = nkeys view node in
    let i = lower_bound view node key in
    if i < n && key_at view node i = key then begin
      set_val view node i value;
      None
    end
    else begin
      shift_right view node i n;
      set_key view node i key;
      set_val view node i value;
      set_nkeys view node (n + 1);
      t.size <- t.size + 1;
      if n + 1 <= capacity then None
      else begin
        (* split leaf: upper half moves to a fresh right sibling *)
        let right = alloc_node t view ~leaf:true in
        let total = n + 1 in
        let keep = total / 2 in
        move_range view ~src:node ~dst:right ~src_pos:keep ~dst_pos:0
          ~count:(total - keep);
        set_nkeys view node keep;
        set_nkeys view right (total - keep);
        set_next view right (next_leaf view node);
        set_next view node right;
        Some (key_at view right 0, right)
      end
    end
  end
  else begin
    let i = child_index view node key in
    let child = val_at view node i in
    match insert_rec t view child ~key ~value with
    | None -> None
    | Some (sep, right_child) ->
      let n = nkeys view node in
      (* children live in vals[0..n]; make room at i+1 *)
      for j = n downto i + 1 do
        set_val view node (j + 1) (val_at view node j)
      done;
      for j = n - 1 downto i do
        set_key view node (j + 1) (key_at view node j)
      done;
      set_key view node i sep;
      set_val view node (i + 1) right_child;
      set_nkeys view node (n + 1);
      if n + 1 <= capacity then None
      else begin
        (* split internal: middle key moves up *)
        let right = alloc_node t view ~leaf:false in
        let total = n + 1 in
        let keep = total / 2 in
        let sep_up = key_at view node keep in
        let right_keys = total - keep - 1 in
        for j = 0 to right_keys - 1 do
          set_key view right j (key_at view node (keep + 1 + j))
        done;
        for j = 0 to right_keys do
          set_val view right j (val_at view node (keep + 1 + j))
        done;
        set_nkeys view node keep;
        set_nkeys view right right_keys;
        Some (sep_up, right)
      end
  end

let insert t view ~key ~value =
  match insert_rec t view t.root ~key ~value with
  | None -> ()
  | Some (sep, right) ->
    let new_root = alloc_node t view ~leaf:false in
    set_nkeys view new_root 1;
    set_key view new_root 0 sep;
    set_val view new_root 0 t.root;
    set_val view new_root 1 right;
    t.root <- new_root;
    t.height <- t.height + 1

let fold_range t view ~lo ~hi ~init ~f =
  let leaf = find_leaf view t.root lo in
  let rec walk node acc =
    if node < 0 then acc
    else begin
      let n = nkeys view node in
      let rec entries i acc =
        if i >= n then `More acc
        else begin
          let k = key_at view node i in
          if k > hi then `Stop acc
          else if k < lo then entries (i + 1) acc
          else entries (i + 1) (f acc ~key:k ~value:(val_at view node i))
        end
      in
      match entries 0 acc with
      | `Stop acc -> acc
      | `More acc -> walk (next_leaf view node) acc
    end
  in
  walk leaf init

let last_below t view bound =
  (* descend towards [bound]; the predecessor is in this leaf or, when
     the leaf's smallest key exceeds the bound, does not exist in it *)
  let leaf = find_leaf view t.root bound in
  let n = nkeys view leaf in
  let i = lower_bound view leaf bound in
  if i < n && key_at view leaf i = bound then
    Some (bound, val_at view leaf i)
  else if i > 0 then Some (key_at view leaf (i - 1), val_at view leaf (i - 1))
  else None

let copy t = { t with root = t.root }
let size t = t.size
let height t = t.height
let pages_used t = t.next_page
