module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Rng = Adios_engine.Rng
module Kvstore = Adios_apps.Kvstore
module Scanstore = Adios_apps.Scanstore
module Btree = Adios_apps.Btree
module Tpcc = Adios_apps.Tpcc
module Ivf = Adios_apps.Ivf

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let direct_view ~pages = View.direct (Arena.create ~pages ~page_size:4096)

(* --- kvstore -------------------------------------------------------------- *)

(* The value stored under [key], read through the view where it lies,
   or [None] when the key is absent. *)
let kv_value kv v key =
  let entry = Kvstore.get kv v key in
  if entry < 0 then None
  else
    let len = Kvstore.read_value kv v entry in
    Some (Bytes.to_string (View.read_blob v (Kvstore.value_addr kv entry) len))

let test_kvstore_get () =
  let keys = 500 in
  let pages = Kvstore.pages_needed ~keys ~key_bytes:50 ~value_bytes:128 in
  let v = direct_view ~pages in
  let kv = Kvstore.create v ~keys ~key_bytes:50 ~value_bytes:128 in
  check_int "keys" keys (Kvstore.keys kv);
  for i = 0 to keys - 1 do
    let entry = Kvstore.get kv v (Kvstore.key_string kv i) in
    if entry < 0 then Alcotest.failf "missing key %d" i;
    check_int "value size" 128 (Kvstore.read_value kv v entry);
    check_bool "the stored value, in place" true
      (View.equal_string v (Kvstore.value_addr kv entry) 128
         (Kvstore.value_string kv i))
  done;
  check_int "absent key" (-1) (Kvstore.get kv v "nonexistent-key")

let test_kvstore_put () =
  let keys = 100 in
  let pages = Kvstore.pages_needed ~keys ~key_bytes:50 ~value_bytes:64 in
  let v = direct_view ~pages in
  let kv = Kvstore.create v ~keys ~key_bytes:50 ~value_bytes:64 in
  let k = Kvstore.key_string kv 7 in
  check_bool "put" true (Kvstore.put kv v k "short");
  check (Alcotest.option Alcotest.string) "updated" (Some "short")
    (kv_value kv v k);
  check_bool "too long rejected" false
    (Kvstore.put kv v k (String.make 100 'x'));
  check_bool "absent rejected" false (Kvstore.put kv v "missing" "v")

let prop_kvstore_matches_hashtbl =
  QCheck.Test.make ~name:"kvstore get matches reference" ~count:20
    QCheck.(int_range 10 400)
    (fun keys ->
      let pages = Kvstore.pages_needed ~keys ~key_bytes:20 ~value_bytes:32 in
      let v = direct_view ~pages in
      let kv = Kvstore.create v ~keys ~key_bytes:20 ~value_bytes:32 in
      let ok = ref true in
      for i = 0 to keys - 1 do
        if kv_value kv v (Kvstore.key_string kv i)
           <> Some (Kvstore.value_string kv i)
        then ok := false
      done;
      !ok)

(* --- scanstore -------------------------------------------------------------- *)

let test_scanstore_get () =
  let keys = 300 in
  let pages = Scanstore.pages_needed ~keys ~value_bytes:100 in
  let v = direct_view ~pages in
  let st = Scanstore.create v ~keys ~value_bytes:100 in
  check_int "keys" keys (Scanstore.keys st);
  for k = 0 to keys - 1 do
    let addr = Scanstore.get st v k in
    if addr < 0 then Alcotest.failf "missing %d" k;
    check_bool "expected" true
      (View.equal_string v addr (Scanstore.value_bytes st)
         (Scanstore.expected_value st k))
  done;
  check_int "oob low" (-1) (Scanstore.get st v (-1));
  check_int "oob high" (-1) (Scanstore.get st v keys)

let test_scanstore_scan () =
  let keys = 300 in
  let pages = Scanstore.pages_needed ~keys ~value_bytes:64 in
  let v = direct_view ~pages in
  let st = Scanstore.create v ~keys ~value_bytes:64 in
  let seen = ref [] in
  let n = Scanstore.scan st v ~on_row:(fun k _ -> seen := k :: !seen) 50 10 in
  check_int "visited" 10 n;
  check (Alcotest.list Alcotest.int) "keys in order"
    [ 50; 51; 52; 53; 54; 55; 56; 57; 58; 59 ]
    (List.rev !seen);
  (* truncated at the end of the store *)
  let n = Scanstore.scan st v 295 100 in
  check_int "truncated" 5 n;
  let n = Scanstore.scan st v ~on_row:(fun k addr ->
      check_bool "row value" true
        (View.equal_string v addr 64 (Scanstore.expected_value st k)))
      0 3
  in
  check_int "values checked" 3 n

(* --- record labels ---------------------------------------------------------- *)

(* What the stores wrote with Printf: [base] cut to [len] bytes or padded
   to it with [fill]. *)
let printf_label base ~fill ~len =
  let pad = len - String.length base in
  if pad <= 0 then String.sub base 0 len else base ^ String.make pad fill

let letter i = Char.chr (Char.code 'a' + (i mod 26))

(* Stores of one key and one value for each width: the labels only
   depend on the store's key and value lengths. *)
let label_stores =
  List.map
    (fun (key_bytes, value_bytes) ->
      let pages = Kvstore.pages_needed ~keys:1 ~key_bytes ~value_bytes in
      let kv =
        Kvstore.create (direct_view ~pages) ~keys:1 ~key_bytes ~value_bytes
      in
      let pages = Scanstore.pages_needed ~keys:1 ~value_bytes in
      let st = Scanstore.create (direct_view ~pages) ~keys:1 ~value_bytes in
      (key_bytes, value_bytes, kv, st))
    [ (50, 128); (50, 1024); (16, 19); (10, 7); (1, 1) ]

let labels_match i =
  List.for_all
    (fun (key_bytes, value_bytes, kv, st) ->
      String.equal (Kvstore.key_string kv i)
        (printf_label (Printf.sprintf "key-%012d" i) ~fill:'k' ~len:key_bytes)
      && String.equal (Kvstore.value_string kv i)
           (printf_label (Printf.sprintf "value-%012d-" i) ~fill:(letter i)
              ~len:value_bytes)
      && String.equal (Scanstore.expected_value st i)
           (printf_label (Printf.sprintf "row-%012d-" i) ~fill:(letter i)
              ~len:value_bytes))
    label_stores

let test_labels_edges () =
  let rec powers p acc =
    if p > 1_000_000_000_000 then acc else powers (p * 10) (p :: acc)
  in
  let around = List.concat_map (fun p -> [ p - 1; p; p + 1 ]) (powers 1 []) in
  List.iter
    (fun i ->
      if not (labels_match i) then Alcotest.failf "label of %d differs" i)
    ([ 0; 9; 10; 999_999_999_999; -1; -10; max_int; min_int ] @ around)

let prop_labels_match_printf =
  QCheck.Test.make ~name:"labels match Printf" ~count:500
    QCheck.(int_range 0 2_000_000_000_000)
    labels_match

(* --- btree ------------------------------------------------------------------- *)

let test_btree_basic () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  check_int "empty" 0 (Btree.size t);
  check_bool "missing" true (Btree.find t v 5 = None);
  Btree.insert t v ~key:5 ~value:50;
  Btree.insert t v ~key:3 ~value:30;
  Btree.insert t v ~key:9 ~value:90;
  check (Alcotest.option Alcotest.int) "find 5" (Some 50) (Btree.find t v 5);
  check (Alcotest.option Alcotest.int) "find 3" (Some 30) (Btree.find t v 3);
  check (Alcotest.option Alcotest.int) "find 9" (Some 90) (Btree.find t v 9);
  check_bool "absent" true (Btree.find t v 4 = None);
  Btree.insert t v ~key:5 ~value:55;
  check (Alcotest.option Alcotest.int) "overwrite" (Some 55) (Btree.find t v 5);
  check_int "size stable on overwrite" 3 (Btree.size t)

let test_btree_splits () =
  let v = direct_view ~pages:256 in
  let t = Btree.create v ~region_base:0 ~region_pages:256 in
  let n = 5000 in
  for i = 0 to n - 1 do
    (* insertion order designed to hit both leaf and internal splits *)
    let k = (i * 7919) mod 100_000 in
    Btree.insert t v ~key:k ~value:(k * 2)
  done;
  check_bool "grew" true (Btree.height t >= 2);
  check_bool "pages used sane" true (Btree.pages_used t <= 256);
  for i = 0 to n - 1 do
    let k = (i * 7919) mod 100_000 in
    check (Alcotest.option Alcotest.int) "find after splits" (Some (k * 2))
      (Btree.find t v k)
  done

(* A copy runs on a shared image: inserts through it split nodes and
   grow the root, and once the arena is rolled back the original still
   describes the tree as built. *)
let test_btree_copy () =
  let v = direct_view ~pages:256 in
  let t = Btree.create v ~region_base:0 ~region_pages:256 in
  for k = 0 to 99 do
    Btree.insert t v ~key:k ~value:k
  done;
  Arena.journal (View.arena v);
  let c = Btree.copy t in
  for k = 100 to 4999 do
    Btree.insert c v ~key:k ~value:k
  done;
  check_bool "the copy grew" true (Btree.height c > Btree.height t);
  Arena.rollback (View.arena v);
  check_int "original size" 100 (Btree.size t);
  check_int "original height" 1 (Btree.height t);
  check_int "original pages" 1 (Btree.pages_used t);
  for k = 0 to 99 do
    check (Alcotest.option Alcotest.int) "built key" (Some k)
      (Btree.find t v k)
  done;
  check_bool "copy's key gone" true (Btree.find t v 100 = None)

let test_btree_fold_range () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  for k = 0 to 999 do
    Btree.insert t v ~key:k ~value:k
  done;
  let collected =
    Btree.fold_range t v ~lo:100 ~hi:119 ~init:[] ~f:(fun acc ~key ~value:_ ->
        key :: acc)
  in
  check (Alcotest.list Alcotest.int) "range" (List.init 20 (fun i -> 119 - i))
    collected;
  let sum =
    Btree.fold_range t v ~lo:0 ~hi:999 ~init:0 ~f:(fun acc ~key:_ ~value ->
        acc + value)
  in
  check_int "full fold" (999 * 1000 / 2) sum;
  let empty =
    Btree.fold_range t v ~lo:5000 ~hi:6000 ~init:0 ~f:(fun acc ~key:_ ~value:_ ->
        acc + 1)
  in
  check_int "empty range" 0 empty

let test_btree_last_below () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  for k = 0 to 499 do
    Btree.insert t v ~key:(k * 2) ~value:k
  done;
  (match Btree.last_below t v 100 with
  | Some (k, _) -> check_int "exact" 100 k
  | None -> Alcotest.fail "missing");
  match Btree.last_below t v 101 with
  | Some (k, _) -> check_int "predecessor" 100 k
  | None -> Alcotest.fail "missing"

let prop_kvstore_updates_match_hashtbl =
  QCheck.Test.make ~name:"kvstore put/get sequence matches Hashtbl" ~count:15
    QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 0 49) (int_range 0 25)))
    (fun ops ->
      let keys = 50 in
      let pages = Kvstore.pages_needed ~keys ~key_bytes:20 ~value_bytes:32 in
      let v = direct_view ~pages in
      let kv = Kvstore.create v ~keys ~key_bytes:20 ~value_bytes:32 in
      let reference = Hashtbl.create 64 in
      for i = 0 to keys - 1 do
        match kv_value kv v (Kvstore.key_string kv i) with
        | Some value -> Hashtbl.replace reference i value
        | None -> ()
      done;
      List.iter
        (fun (k, tag) ->
          let key = Kvstore.key_string kv k in
          let value = Printf.sprintf "v-%02d" tag in
          if Kvstore.put kv v key value then Hashtbl.replace reference k value)
        ops;
      Hashtbl.fold
        (fun k value acc ->
          acc && kv_value kv v (Kvstore.key_string kv k) = Some value)
        reference true)

let prop_scan_matches_slice =
  QCheck.Test.make ~name:"scan visits exactly the key slice" ~count:30
    QCheck.(pair (int_range 0 299) (int_range 0 80))
    (fun (start, n) ->
      let keys = 300 in
      let pages = Scanstore.pages_needed ~keys ~value_bytes:24 in
      let v = direct_view ~pages in
      let st = Scanstore.create v ~keys ~value_bytes:24 in
      let seen = ref [] in
      let count = Scanstore.scan st v ~on_row:(fun k _ -> seen := k :: !seen) start n in
      let expected = List.init (min n (keys - start)) (fun i -> start + i) in
      count = List.length expected && List.rev !seen = expected)

module IntMap = Map.Make (Int)

let prop_btree_matches_map =
  QCheck.Test.make ~name:"btree matches Map reference" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 800) (pair (int_range 0 2000) small_nat))
    (fun kvs ->
      let v = direct_view ~pages:256 in
      let t = Btree.create v ~region_base:0 ~region_pages:256 in
      let reference =
        List.fold_left
          (fun m (k, value) ->
            Btree.insert t v ~key:k ~value;
            IntMap.add k value m)
          IntMap.empty kvs
      in
      Btree.size t = IntMap.cardinal reference
      && IntMap.for_all (fun k value -> Btree.find t v k = Some value) reference
      && Btree.find t v 99_999 = None)

(* --- tpcc ----------------------------------------------------------------- *)

let small_tpcc () =
  let cfg =
    {
      Tpcc.warehouses = 1;
      districts_per_w = 2;
      customers_per_d = 30;
      items = 200;
      order_ring = 256;
      lines_ring = 4096;
      preload_orders = 20;
      btree_pages_per_district = 32;
    }
  in
  let pages = Tpcc.pages_needed cfg in
  let v = direct_view ~pages in
  (Tpcc.create v cfg, v, cfg)

let test_tpcc_new_order () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 1 in
  let before = Tpcc.district_next_o_id db v ~w:0 ~d:0 in
  (match Tpcc.new_order db v rng ~w:0 ~d:0 ~c:5 with
  | Tpcc.Committed n -> check_bool "records touched" true (n >= 5)
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  check_int "o_id advanced" (before + 1)
    (Tpcc.district_next_o_id db v ~w:0 ~d:0)

let test_tpcc_payment_balance () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 2 in
  let bal = Tpcc.customer_balance db v ~w:0 ~d:1 ~c:3 in
  let ytd = Tpcc.warehouse_ytd db v ~w:0 in
  (match Tpcc.payment db v rng ~w:0 ~d:1 ~c:3 with
  | Tpcc.Committed _ -> ()
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  let bal' = Tpcc.customer_balance db v ~w:0 ~d:1 ~c:3 in
  let ytd' = Tpcc.warehouse_ytd db v ~w:0 in
  check_bool "balance decreased" true (bal' < bal);
  (* the paid amount moves from the customer to the warehouse ytd *)
  check_int "conservation" (bal - bal') (ytd' - ytd)

let test_tpcc_order_status () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 3 in
  ignore (Tpcc.new_order db v rng ~w:0 ~d:0 ~c:7);
  match Tpcc.order_status db v ~w:0 ~d:0 ~c:7 with
  | Tpcc.Committed n -> check_bool "read order + lines" true (n >= 7)
  | Tpcc.Skipped -> Alcotest.fail "order not found"

let test_tpcc_delivery () =
  let db, v, _ = small_tpcc () in
  match Tpcc.delivery db v ~w:0 with
  | Tpcc.Committed n -> check_bool "delivered preloaded orders" true (n > 0)
  | Tpcc.Skipped -> Alcotest.fail "nothing to deliver"

let test_tpcc_delivery_credits_customer () =
  let db, v, cfg = small_tpcc () in
  ignore cfg;
  (* deliver the oldest order of district 0 and check its customer *)
  let sum_balances () =
    let acc = ref 0 in
    for c = 0 to 29 do
      acc := !acc + Tpcc.customer_balance db v ~w:0 ~d:0 ~c
    done;
    !acc
  in
  let before = sum_balances () in
  (match Tpcc.delivery db v ~w:0 with
  | Tpcc.Committed _ -> ()
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  check_bool "balances credited" true (sum_balances () > before)

let test_tpcc_stock_level () =
  let db, v, _ = small_tpcc () in
  match Tpcc.stock_level db v ~w:0 ~d:0 ~threshold:1000 with
  | Tpcc.Committed n -> check_bool "joined orders and stock" true (n > 20)
  | Tpcc.Skipped -> Alcotest.fail "skipped"

let test_nurand_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Tpcc.nurand rng ~a:1023 ~x:0 ~y:2999 in
    check_bool "bounds" true (v >= 0 && v <= 2999)
  done

let test_tpcc_ticks_fire () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 5 in
  let ticks = ref 0 in
  ignore (Tpcc.new_order ~tick:(fun () -> incr ticks) db v rng ~w:0 ~d:0 ~c:1);
  check_bool "per-item ticks" true (!ticks >= 5)

(* --- ivf ------------------------------------------------------------------ *)

let small_ivf () =
  let p =
    { Ivf.vectors = 2000; dim = 16; pad = 16; nlist = 16; nprobe = 4; noise = 10 }
  in
  let pages = Ivf.pages_needed p in
  let v = direct_view ~pages in
  let t = Ivf.create v p ~seed:42 in
  (t, v, p)

(* Reference top-k: insert after equal distances, then truncate. *)
let topk_add_reference k lst entry =
  let rec ins = function
    | [] -> [ entry ]
    | x :: rest -> if fst entry < fst x then entry :: x :: rest else x :: ins rest
  in
  let l = ins lst in
  if List.length l > k then List.filteri (fun i _ -> i < k) l else l

(* Distances drawn from 0..9 so most streams tie; ids are positions, so
   a tie broken the other way shows. *)
let prop_topk_matches_reference =
  QCheck.Test.make ~name:"topk_add matches insert-then-truncate" ~count:500
    QCheck.(pair (int_range 0 6) (list_of_size (Gen.int_range 0 60) (int_range 0 9)))
    (fun (k, stream) ->
      let top, reference, _ =
        List.fold_left
          (fun (top, reference, id) d ->
            let top = Ivf.topk_add k top d id in
            let reference = topk_add_reference k reference (d, id) in
            if top <> reference then
              QCheck.Test.fail_reportf "k=%d: differs after id %d" k id;
            (top, reference, id + 1))
          ([], [], 0) stream
      in
      top = reference)

let test_ivf_search_sorted () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 6 in
  let q, _ = Ivf.query qs rng in
  let results = Ivf.search t v ~k:10 q in
  check_int "k results" 10 (List.length results);
  let dists = List.map fst results in
  check_bool "sorted" true (List.sort compare dists = dists);
  (* a vector is read in place over the query's length *)
  check_bool "a query of another length is refused" true
    (match Ivf.search t v ~k:10 (Bytes.cat q q) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_ivf_recall () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 8 in
  let hits = ref 0 and total = 30 in
  for _ = 1 to total do
    let q, _ = Ivf.query qs rng in
    let approx = Ivf.search t v ~k:10 q in
    let exact = Ivf.brute_force t v ~k:10 q in
    match (approx, exact) with
    | (_, a1) :: _, (_, e1) :: _ -> if a1 = e1 then incr hits
    | _ -> Alcotest.fail "empty results"
  done;
  (* clustered data: probing the 4 nearest of 16 lists finds the true
     nearest neighbour almost always *)
  check_bool "recall@1 >= 0.7" true (float_of_int !hits /. float_of_int total >= 0.7)

let test_ivf_true_list_probed () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 9 in
  let ok = ref 0 and total = 30 in
  for _ = 1 to total do
    let q, true_list = Ivf.query qs rng in
    let results = Ivf.search t v ~k:5 q in
    (* most results should come from the query's own cluster *)
    let from_true =
      List.length (List.filter (fun (_, id) -> Ivf.list_of_vector t id = true_list) results)
    in
    if from_true >= 3 then incr ok
  done;
  check_bool "cluster structure respected" true
    (float_of_int !ok /. float_of_int total >= 0.7)

let test_ivf_tick_counts_vectors () =
  let t, v, p = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 10 in
  let q, _ = Ivf.query qs rng in
  let scanned = ref 0 in
  ignore (Ivf.search t v ~tick:(fun n -> scanned := !scanned + n) ~k:10 q);
  (* nprobe lists of ~vectors/nlist entries each *)
  let expected = p.Ivf.nprobe * (p.Ivf.vectors / p.Ivf.nlist) in
  check_int "all probed vectors scanned" expected !scanned

(* --- request touch logs ----------------------------------------------------- *)

module App = Adios_core.App
module Request = Adios_core.Request
module Registry = Adios_apps.Registry

let spec kind key = { Request.kind; key; req_bytes = 0; reply_bytes = 0 }

(* Every registry app's handler, run on its built image through a view
   that logs each touch as (addr, len, write), over [requests] generated
   requests and then the hand-made [extra] ones, with [compute] and
   [checkpoint] doing nothing. Returns the touch count, the count of
   [Bad_request] outcomes, and a digest of the touches and the
   outcomes (each message included), in order. *)
let touch_log name ~requests ~extra =
  let app =
    match Registry.find name with
    | Some make -> make ()
    | None -> Alcotest.failf "no app %s" name
  in
  (* the previous app's image is garbage by now: free it before this
     one is built, so the run holds one image at a time *)
  Gc.full_major ();
  let image = App.build_image app in
  let state = ref "" and log = Buffer.create 65536 in
  let touches = ref 0 and bad = ref 0 in
  let flush () =
    state := Digest.string (!state ^ Buffer.contents log);
    Buffer.clear log
  in
  let touch ~addr ~len ~write =
    incr touches;
    Buffer.add_string log (string_of_int addr);
    Buffer.add_char log ' ';
    Buffer.add_string log (string_of_int len);
    Buffer.add_char log (if write then 'w' else 'r');
    if Buffer.length log >= 65536 then flush ()
  in
  let ctx =
    {
      App.view = View.make image.App.arena ~touch;
      compute = ignore;
      checkpoint = ignore;
      rng = Rng.create 1;
    }
  in
  let run s =
    match app.App.handle ctx s with
    | () -> Buffer.add_string log "ok\n"
    | exception App.Bad_request msg ->
      incr bad;
      Buffer.add_string log ("bad " ^ msg ^ "\n")
  in
  let gen = Rng.create 2 in
  for _ = 1 to requests do
    run (app.App.gen gen)
  done;
  List.iter run extra;
  flush ();
  (!touches, !bad, Digest.to_hex !state)

(* Recorded before the apps read in place: a change to the bytes a
   request touches, their order or a request's outcome shows here, also
   for the apps and mixes no golden runs (faiss, memcached-1024,
   RocksDB's GET-heavy default). The extra requests hit a present key
   through SET, absent keys (a negative one and one of 13 digits), a
   truncated and an empty SCAN, and an unknown TPC-C kind. *)
let touch_log_pins =
  let tera = 1_000_000_000_000 in
  let kv = [ spec 1 5; spec 0 5; spec 0 (-1); spec 0 tera; spec 1 tera ] in
  let rdb = [ spec 0 (-1); spec 0 tera; spec 1 tera; spec 1 65_020 ] in
  [
    ("array", 2000, [], (2000, 0, "4de58893664eb3ec88309fdb3c74805c"));
    ("memcached", 2000, kv, (11007, 3, "fc12459ecffac91bd27b7ed01eea9603"));
    ("memcached-1024", 2000, kv, (12504, 3, "3caabd824727a7bad91938d9809773c3"));
    ("rocksdb", 2000, rdb, (8772, 3, "cd91da439636182528dbe91abb9d6d3b"));
    ("rocksdb-scan", 500, rdb, (22002, 3, "fb568e14e1ec507ce7483061c87c78e6"));
    ("silo", 500, [ spec 7 0 ], (64110, 1, "2465e41bd2246ca9b5cef55eff637edc"));
    ("faiss", 20, [], (190048, 0, "66f6976ad2b64b1f674eaabc6a55e2ca"));
  ]

let test_touch_logs () =
  check
    Alcotest.(list (pair string (triple int int string)))
    "touch logs"
    (List.map (fun (name, _, _, pin) -> (name, pin)) touch_log_pins)
    (List.map
       (fun (name, requests, extra, _) ->
         (name, touch_log name ~requests ~extra))
       touch_log_pins)

let () =
  Alcotest.run "apps"
    [
      ( "kvstore",
        [
          Alcotest.test_case "get" `Quick test_kvstore_get;
          Alcotest.test_case "put" `Quick test_kvstore_put;
          QCheck_alcotest.to_alcotest prop_kvstore_matches_hashtbl;
          QCheck_alcotest.to_alcotest prop_kvstore_updates_match_hashtbl;
        ] );
      ( "scanstore",
        [
          Alcotest.test_case "get" `Quick test_scanstore_get;
          Alcotest.test_case "scan" `Quick test_scanstore_scan;
          QCheck_alcotest.to_alcotest prop_scan_matches_slice;
        ] );
      ( "labels",
        [
          Alcotest.test_case "edges" `Quick test_labels_edges;
          QCheck_alcotest.to_alcotest prop_labels_match_printf;
        ] );
      ( "requests",
        [ Alcotest.test_case "touch logs pinned" `Quick test_touch_logs ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "splits" `Quick test_btree_splits;
          Alcotest.test_case "copy" `Quick test_btree_copy;
          Alcotest.test_case "fold_range" `Quick test_btree_fold_range;
          Alcotest.test_case "last_below" `Quick test_btree_last_below;
          QCheck_alcotest.to_alcotest prop_btree_matches_map;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "new order" `Quick test_tpcc_new_order;
          Alcotest.test_case "payment conservation" `Quick
            test_tpcc_payment_balance;
          Alcotest.test_case "order status" `Quick test_tpcc_order_status;
          Alcotest.test_case "delivery" `Quick test_tpcc_delivery;
          Alcotest.test_case "delivery credits" `Quick
            test_tpcc_delivery_credits_customer;
          Alcotest.test_case "stock level" `Quick test_tpcc_stock_level;
          Alcotest.test_case "nurand bounds" `Quick test_nurand_bounds;
          Alcotest.test_case "ticks" `Quick test_tpcc_ticks_fire;
        ] );
      ( "ivf",
        [
          Alcotest.test_case "search sorted" `Quick test_ivf_search_sorted;
          QCheck_alcotest.to_alcotest prop_topk_matches_reference;
          Alcotest.test_case "recall" `Quick test_ivf_recall;
          Alcotest.test_case "cluster structure" `Quick
            test_ivf_true_list_probed;
          Alcotest.test_case "tick counts" `Quick test_ivf_tick_counts_vectors;
        ] );
    ]
