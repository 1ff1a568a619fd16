type value =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Histogram of (unit -> Adios_stats.Histogram.t)

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t = {
  mutable metrics : metric list; (* newest first *)
  seen : (string, unit) Hashtbl.t; (* series_name -> () *)
}

let create () = { metrics = []; seen = Hashtbl.create 64 }

let name_ok ?(prefix = true) s =
  let body_ok =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         s
  in
  body_ok
  && ((not prefix)
     || String.length s > 6
        && String.sub s 0 6 = "adios_")

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let series_name m =
  match m.labels with
  | [] -> m.name
  | labels ->
      let pairs =
        List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels
      in
      Printf.sprintf "%s{%s}" m.name (String.concat "," pairs)

let register t ~name ~help ?(labels = []) value =
  if not (name_ok name) then
    invalid_arg
      (Printf.sprintf
         "Registry.register: bad metric name %S (want adios_[a-z0-9_]*)" name);
  (match value with
  | Counter _ when not (ends_with ~suffix:"_total" name) ->
      invalid_arg
        (Printf.sprintf "Registry.register: counter %S must end in _total" name)
  | (Gauge _ | Histogram _) when ends_with ~suffix:"_total" name ->
      invalid_arg
        (Printf.sprintf
           "Registry.register: %S must not end in _total (OpenMetrics \
            reserves the suffix for counter samples)"
           name)
  | _ -> ());
  List.iter
    (fun (k, _) ->
      if not (name_ok ~prefix:false k) then
        invalid_arg
          (Printf.sprintf "Registry.register: bad label name %S on %S" k name))
    labels;
  let m = { name; help; labels; value } in
  let key = series_name m in
  if Hashtbl.mem t.seen key then
    invalid_arg (Printf.sprintf "Registry.register: duplicate metric %s" key);
  Hashtbl.replace t.seen key ();
  t.metrics <- m :: t.metrics

let counter t ~name ~help ?labels read =
  register t ~name ~help ?labels (Counter read)

let gauge t ~name ~help ?labels read =
  register t ~name ~help ?labels (Gauge read)

let histogram t ~name ~help ?labels read =
  register t ~name ~help ?labels (Histogram read)

let metrics t = List.rev t.metrics

let scalar_series t =
  List.filter_map
    (fun m ->
      match m.value with
      | Counter read -> Some (series_name m, fun () -> float_of_int (read ()))
      | Gauge read -> Some (series_name m, read)
      | Histogram _ -> None)
    (metrics t)

let attach_timeline t timeline =
  List.iter
    (fun (name, read) -> Adios_trace.Timeline.add_gauge timeline ~name read)
    (scalar_series t)
