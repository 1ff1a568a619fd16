module View = Adios_mem.View
module Rng = Adios_engine.Rng

type config = {
  warehouses : int;
  districts_per_w : int;
  customers_per_d : int;
  items : int;
  order_ring : int;
  lines_ring : int;
  preload_orders : int;
  btree_pages_per_district : int;
}

let default_config =
  {
    warehouses = 4;
    districts_per_w = 10;
    customers_per_d = 3000;
    items = 100_000;
    order_ring = 8192;
    lines_ring = 32_768;
    preload_orders = 1000;
    btree_pages_per_district = 192;
  }

(* record sizes *)
let warehouse_bytes = 96
let district_bytes = 96
let customer_bytes = 512
let item_bytes = 64
let stock_bytes = 512
let order_bytes = 64
let line_bytes = 48
let history_bytes = 32
let page = 4096

(* district record field offsets *)
let d_next_o_id = 0
let d_line_cursor = 8
let d_ytd = 16
let d_tax = 24
let d_oldest_undelivered = 32
let d_history_cursor = 40

(* customer record field offsets *)
let c_balance = 0
let c_ytd_payment = 8
let c_payment_cnt = 16
let c_last_o_id = 24
let c_delivery_cnt = 32

(* order record field offsets *)
let o_id_off = 0
let o_c_id = 8
let o_ol_cnt = 16
let o_first_line = 24
let o_delivered = 32
let o_entry_d = 40
let o_amount = 48

(* order line field offsets *)
let ol_i_id = 0
let ol_supply_w = 8
let ol_quantity = 16
let ol_amount = 24
let ol_delivery_d = 32

(* stock field offsets *)
let s_quantity = 0
let s_ytd = 8
let s_order_cnt = 16

(* item field offsets *)
let i_price = 0
let i_data = 8

(* warehouse field offsets *)
let w_ytd = 0
let w_tax = 8

type t = {
  cfg : config;
  warehouse_base : int;
  district_base : int;
  customer_base : int;
  item_base : int;
  stock_base : int;
  order_base : int;
  line_base : int;
  history_base : int;
  order_index : Btree.t array; (* one per district *)
}

let round_page v = (v + page - 1) / page * page

let districts cfg = cfg.warehouses * cfg.districts_per_w

let layout cfg =
  let warehouse_base = 0 in
  let district_base =
    round_page (warehouse_base + (cfg.warehouses * warehouse_bytes))
  in
  let customer_base =
    round_page (district_base + (districts cfg * district_bytes))
  in
  let item_base =
    round_page
      (customer_base
      + (districts cfg * cfg.customers_per_d * customer_bytes))
  in
  let stock_base = round_page (item_base + (cfg.items * item_bytes)) in
  let order_base =
    round_page (stock_base + (cfg.warehouses * cfg.items * stock_bytes))
  in
  let line_base =
    round_page (order_base + (districts cfg * cfg.order_ring * order_bytes))
  in
  let history_base =
    round_page (line_base + (districts cfg * cfg.lines_ring * line_bytes))
  in
  let btree_base =
    round_page (history_base + (districts cfg * cfg.order_ring * history_bytes))
  in
  let total =
    btree_base + (districts cfg * cfg.btree_pages_per_district * page)
  in
  ( warehouse_base,
    district_base,
    customer_base,
    item_base,
    stock_base,
    order_base,
    line_base,
    history_base,
    btree_base,
    total )

let pages_needed cfg =
  let _, _, _, _, _, _, _, _, _, total = layout cfg in
  (total + page - 1) / page

(* --- addressing ---------------------------------------------------------- *)

let did t ~w ~d = (w * t.cfg.districts_per_w) + d
let warehouse_addr t w = t.warehouse_base + (w * warehouse_bytes)
let district_addr t ~w ~d = t.district_base + (did t ~w ~d * district_bytes)

let customer_addr t ~w ~d ~c =
  t.customer_base + (((did t ~w ~d * t.cfg.customers_per_d) + c) * customer_bytes)

let item_addr t i = t.item_base + (i * item_bytes)
let stock_addr t ~w ~i = t.stock_base + (((w * t.cfg.items) + i) * stock_bytes)

let order_addr t ~w ~d ~o_id =
  t.order_base
  + (((did t ~w ~d * t.cfg.order_ring) + (o_id mod t.cfg.order_ring))
    * order_bytes)

let line_addr t ~w ~d ~slot =
  t.line_base
  + (((did t ~w ~d * t.cfg.lines_ring) + (slot mod t.cfg.lines_ring))
    * line_bytes)

let history_addr t ~w ~d ~slot =
  t.history_base
  + (((did t ~w ~d * t.cfg.order_ring) + (slot mod t.cfg.order_ring))
    * history_bytes)

(* --- NURand --------------------------------------------------------------- *)

let nurand_c = 123

let nurand rng ~a ~x ~y =
  let r1 = x + Rng.int rng (a + 1) in
  let r2 = x + Rng.int rng (y - x + 1) in
  (((r1 lor r2) + nurand_c) mod (y - x + 1)) + x

(* --- population ----------------------------------------------------------- *)

type result = Committed of int | Skipped

let insert_order t view ~w ~d ~o_id ~c_id ~ol_cnt ~first_line ~amount =
  let addr = order_addr t ~w ~d ~o_id in
  View.write_int view (addr + o_id_off) o_id;
  View.write_int view (addr + o_c_id) c_id;
  View.write_int view (addr + o_ol_cnt) ol_cnt;
  View.write_int view (addr + o_first_line) first_line;
  View.write_int view (addr + o_delivered) 0;
  View.write_int view (addr + o_entry_d) 0;
  View.write_int view (addr + o_amount) amount;
  Btree.insert t.order_index.(did t ~w ~d) view ~key:o_id ~value:addr

let write_line t view ~w ~d ~slot ~i_id ~supply_w ~quantity ~amount =
  let addr = line_addr t ~w ~d ~slot in
  View.write_int view (addr + ol_i_id) i_id;
  View.write_int view (addr + ol_supply_w) supply_w;
  View.write_int view (addr + ol_quantity) quantity;
  View.write_int view (addr + ol_amount) amount;
  View.write_int view (addr + ol_delivery_d) 0

let create view cfg =
  let ( warehouse_base,
        district_base,
        customer_base,
        item_base,
        stock_base,
        order_base,
        line_base,
        history_base,
        btree_base,
        _total ) =
    layout cfg
  in
  let order_index =
    Array.init (districts cfg) (fun i ->
        Btree.create view
          ~region_base:(btree_base + (i * cfg.btree_pages_per_district * page))
          ~region_pages:cfg.btree_pages_per_district)
  in
  let t =
    {
      cfg;
      warehouse_base;
      district_base;
      customer_base;
      item_base;
      stock_base;
      order_base;
      line_base;
      history_base;
      order_index;
    }
  in
  let rng = Rng.create 7 in
  for w = 0 to cfg.warehouses - 1 do
    View.write_int view (warehouse_addr t w + w_ytd) 0;
    View.write_int view (warehouse_addr t w + w_tax) (Rng.int rng 2000);
    for d = 0 to cfg.districts_per_w - 1 do
      let da = district_addr t ~w ~d in
      View.write_int view (da + d_next_o_id) 0;
      View.write_int view (da + d_line_cursor) 0;
      View.write_int view (da + d_ytd) 0;
      View.write_int view (da + d_tax) (Rng.int rng 2000);
      View.write_int view (da + d_oldest_undelivered) 0;
      View.write_int view (da + d_history_cursor) 0;
      for c = 0 to cfg.customers_per_d - 1 do
        let ca = customer_addr t ~w ~d ~c in
        View.write_int view (ca + c_balance) (-1000);
        View.write_int view (ca + c_ytd_payment) 1000;
        View.write_int view (ca + c_payment_cnt) 1;
        View.write_int view (ca + c_last_o_id) (-1);
        View.write_int view (ca + c_delivery_cnt) 0
      done
    done
  done;
  for i = 0 to cfg.items - 1 do
    View.write_int view (item_addr t i + i_price) (100 + Rng.int rng 9900);
    View.write_int view (item_addr t i + i_data) i
  done;
  for w = 0 to cfg.warehouses - 1 do
    for i = 0 to cfg.items - 1 do
      let sa = stock_addr t ~w ~i in
      View.write_int view (sa + s_quantity) (10 + Rng.int rng 91);
      View.write_int view (sa + s_ytd) 0;
      View.write_int view (sa + s_order_cnt) 0
    done
  done;
  (* preload orders so Delivery and Stock-Level have data from the start *)
  for w = 0 to cfg.warehouses - 1 do
    for d = 0 to cfg.districts_per_w - 1 do
      let da = district_addr t ~w ~d in
      for o_id = 0 to cfg.preload_orders - 1 do
        let ol_cnt = 5 + Rng.int rng 11 in
        let first_line = View.read_int view (da + d_line_cursor) in
        let amount = ref 0 in
        for l = 0 to ol_cnt - 1 do
          let i_id = Rng.int rng cfg.items in
          let price = View.read_int view (item_addr t i_id + i_price) in
          let quantity = 1 + Rng.int rng 10 in
          amount := !amount + (price * quantity);
          write_line t view ~w ~d ~slot:(first_line + l) ~i_id ~supply_w:w
            ~quantity ~amount:(price * quantity)
        done;
        View.write_int view (da + d_line_cursor) (first_line + ol_cnt);
        let c_id = Rng.int rng cfg.customers_per_d in
        insert_order t view ~w ~d ~o_id ~c_id ~ol_cnt ~first_line
          ~amount:!amount;
        View.write_int view (da + d_next_o_id) (o_id + 1);
        View.write_int view (customer_addr t ~w ~d ~c:c_id + c_last_o_id) o_id
      done
    done
  done;
  t

let config t = t.cfg
let copy t = { t with order_index = Array.map Btree.copy t.order_index }

(* --- transactions ---------------------------------------------------------- *)

let new_order ?(tick = fun () -> ()) t view rng ~w ~d ~c =
  let touched = ref 3 in
  let _w_tax = View.read_int view (warehouse_addr t w + w_tax) in
  let da = district_addr t ~w ~d in
  let _d_tax = View.read_int view (da + d_tax) in
  let o_id = View.read_int view (da + d_next_o_id) in
  View.write_int view (da + d_next_o_id) (o_id + 1);
  let ca = customer_addr t ~w ~d ~c in
  let _discount = View.read_int view (ca + c_payment_cnt) in
  let ol_cnt = 5 + Rng.int rng 11 in
  let first_line = View.read_int view (da + d_line_cursor) in
  let amount = ref 0 in
  for l = 0 to ol_cnt - 1 do
    let i_id = nurand rng ~a:8191 ~x:0 ~y:(t.cfg.items - 1) in
    (* 1% of lines are supplied by a remote warehouse *)
    let supply_w =
      if t.cfg.warehouses > 1 && Rng.uniform rng < 0.01 then
        (w + 1 + Rng.int rng (t.cfg.warehouses - 1)) mod t.cfg.warehouses
      else w
    in
    let price = View.read_int view (item_addr t i_id + i_price) in
    let sa = stock_addr t ~w:supply_w ~i:i_id in
    let qty = View.read_int view (sa + s_quantity) in
    let order_qty = 1 + Rng.int rng 10 in
    let new_qty =
      if qty - order_qty >= 10 then qty - order_qty else qty - order_qty + 91
    in
    View.write_int view (sa + s_quantity) new_qty;
    View.write_int view (sa + s_ytd)
      (View.read_int view (sa + s_ytd) + order_qty);
    View.write_int view (sa + s_order_cnt)
      (View.read_int view (sa + s_order_cnt) + 1);
    amount := !amount + (price * order_qty);
    write_line t view ~w ~d ~slot:(first_line + l) ~i_id ~supply_w
      ~quantity:order_qty ~amount:(price * order_qty);
    tick ();
    touched := !touched + 3
  done;
  View.write_int view (da + d_line_cursor) (first_line + ol_cnt);
  insert_order t view ~w ~d ~o_id ~c_id:c ~ol_cnt ~first_line ~amount:!amount;
  View.write_int view (ca + c_last_o_id) o_id;
  Committed (!touched + 2)

let payment ?(tick = fun () -> ()) t view rng ~w ~d ~c =
  let amount = 100 + Rng.int rng 500_000 in
  let wa = warehouse_addr t w in
  View.write_int view (wa + w_ytd) (View.read_int view (wa + w_ytd) + amount);
  let da = district_addr t ~w ~d in
  View.write_int view (da + d_ytd) (View.read_int view (da + d_ytd) + amount);
  let ca = customer_addr t ~w ~d ~c in
  View.write_int view (ca + c_balance)
    (View.read_int view (ca + c_balance) - amount);
  View.write_int view (ca + c_ytd_payment)
    (View.read_int view (ca + c_ytd_payment) + amount);
  View.write_int view (ca + c_payment_cnt)
    (View.read_int view (ca + c_payment_cnt) + 1);
  let hslot = View.read_int view (da + d_history_cursor) in
  View.write_int view (da + d_history_cursor) (hslot + 1);
  let ha = history_addr t ~w ~d ~slot:hslot in
  View.write_int view ha amount;
  View.write_int view (ha + 8) ((w * 10000) + (d * 100));
  tick ();
  Committed 4

let read_order_lines ?(tick = fun () -> ()) t view ~w ~d ~order_addr:oa ~f =
  let ol_cnt = View.read_int view (oa + o_ol_cnt) in
  let first_line = View.read_int view (oa + o_first_line) in
  for l = 0 to ol_cnt - 1 do
    f (line_addr t ~w ~d ~slot:(first_line + l));
    tick ()
  done;
  ol_cnt

let order_status ?(tick = fun () -> ()) t view ~w ~d ~c =
  let ca = customer_addr t ~w ~d ~c in
  let _balance = View.read_int view (ca + c_balance) in
  let last = View.read_int view (ca + c_last_o_id) in
  if last < 0 then Skipped
  else
    match Btree.find t.order_index.(did t ~w ~d) view last with
    | None -> Skipped
    | Some oa ->
      let _delivered = View.read_int view (oa + o_delivered) in
      let n =
        read_order_lines ~tick t view ~w ~d ~order_addr:oa ~f:(fun la ->
            ignore (View.read_int view (la + ol_quantity)))
      in
      Committed (2 + n)

let delivery ?(tick = fun () -> ()) t view ~w =
  let touched = ref 0 in
  for d = 0 to t.cfg.districts_per_w - 1 do
    let da = district_addr t ~w ~d in
    let oldest = View.read_int view (da + d_oldest_undelivered) in
    let next = View.read_int view (da + d_next_o_id) in
    if oldest < next then begin
      match Btree.find t.order_index.(did t ~w ~d) view oldest with
      | None -> View.write_int view (da + d_oldest_undelivered) (oldest + 1)
      | Some oa ->
        View.write_int view (oa + o_delivered) 1;
        let amount = View.read_int view (oa + o_amount) in
        let n =
          read_order_lines ~tick t view ~w ~d ~order_addr:oa ~f:(fun la ->
              View.write_int view (la + ol_delivery_d) 1)
        in
        let c = View.read_int view (oa + o_c_id) in
        let ca = customer_addr t ~w ~d ~c in
        View.write_int view (ca + c_balance)
          (View.read_int view (ca + c_balance) + amount);
        View.write_int view (ca + c_delivery_cnt)
          (View.read_int view (ca + c_delivery_cnt) + 1);
        View.write_int view (da + d_oldest_undelivered) (oldest + 1);
        touched := !touched + 3 + n
    end
  done;
  if !touched = 0 then Skipped else Committed !touched

let stock_level ?(tick = fun () -> ()) t view ~w ~d ~threshold =
  let da = district_addr t ~w ~d in
  let next = View.read_int view (da + d_next_o_id) in
  if next = 0 then Skipped
  else begin
    let lo = max 0 (next - 20) in
    let touched = ref 1 in
    let low_stock = Hashtbl.create 64 in
    let _ =
      Btree.fold_range t.order_index.(did t ~w ~d) view ~lo ~hi:(next - 1)
        ~init:() ~f:(fun () ~key:_ ~value:oa ->
          let n =
            read_order_lines ~tick t view ~w ~d ~order_addr:oa ~f:(fun la ->
                let i_id = View.read_int view (la + ol_i_id) in
                let supply_w = View.read_int view (la + ol_supply_w) in
                let qty =
                  View.read_int view (stock_addr t ~w:supply_w ~i:i_id + s_quantity)
                in
                if qty < threshold then Hashtbl.replace low_stock i_id ())
          in
          touched := !touched + 1 + (2 * n))
    in
    Committed !touched
  end

(* --- probes for tests ------------------------------------------------------ *)

let district_next_o_id t view ~w ~d =
  View.read_int view (district_addr t ~w ~d + d_next_o_id)

let customer_balance t view ~w ~d ~c =
  View.read_int view (customer_addr t ~w ~d ~c + c_balance)

let warehouse_ytd t view ~w = View.read_int view (warehouse_addr t w + w_ytd)
