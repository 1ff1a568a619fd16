type t = {
  count : int;
  mean : float;
  min : int;
  p10 : int;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

let of_histogram h =
  {
    count = Histogram.count h;
    mean = Histogram.mean h;
    min = Histogram.min_value h;
    p10 = Histogram.percentile h 10.;
    p50 = Histogram.percentile h 50.;
    p90 = Histogram.percentile h 90.;
    p99 = Histogram.percentile h 99.;
    p999 = Histogram.percentile h 99.9;
    max = Histogram.max_value h;
  }

let us c = Adios_engine.Clock.to_us c

let pp ppf t =
  Format.fprintf ppf
    "n=%d mean=%.2fus p10=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus"
    t.count
    (t.mean /. float_of_int Adios_engine.Clock.cycles_per_us)
    (us t.p10) (us t.p50) (us t.p90) (us t.p99) (us t.p999) (us t.max)

