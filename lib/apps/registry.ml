(* Name -> application factory table, shared by every front end
   (adios_sim, adios_sweep, the sweep spec in lib/exp). Entries are
   thunks, not built applications: each experiment point constructs its
   own App.t, so no generator or cache state leaks between points. A
   sweep builds each app's dataset once and every point adopts it
   (App.adopt), which is sound because no factory here builds anything
   that depends on the point: array values are a function of the
   index, and TPC-C and IVF draw from fixed private seeds (7 and 11). *)

let table : (string * (unit -> Adios_core.App.t)) list =
  [
    ("array", fun () -> Array_bench.app ());
    ("memcached", fun () -> Memcached.app ());
    ("memcached-1024", fun () -> Memcached.app ~value_bytes:1024 ());
    ("rocksdb", fun () -> Rocksdb.app ());
    (* SCAN-heavy mix: 20x the default scan share, for stride-prefetch
       and preemption experiments *)
    ("rocksdb-scan", fun () -> Rocksdb.app ~scan_fraction:0.2 ());
    ("silo", fun () -> Silo.app ());
    ("faiss", fun () -> Faiss.app ());
  ]

let names = List.map fst table

let find = function
  | "memcached-128" -> List.assoc_opt "memcached" table
  | name -> List.assoc_opt name table

let unknown name =
  Printf.sprintf "unknown app %S (valid: %s)" name (String.concat ", " names)
