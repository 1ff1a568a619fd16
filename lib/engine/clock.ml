type cycles = int

let cycles_per_sec = 2_000_000_000
let cycles_per_us = cycles_per_sec / 1_000_000

let of_us t = int_of_float (Float.round (t *. float_of_int cycles_per_us))
let of_ns t = int_of_float (Float.round (t *. float_of_int cycles_per_us /. 1000.))
let of_sec t = int_of_float (Float.round (t *. float_of_int cycles_per_sec))

let to_us c = float_of_int c /. float_of_int cycles_per_us
let to_ns c = 1000. *. float_of_int c /. float_of_int cycles_per_us
let to_sec c = float_of_int c /. float_of_int cycles_per_sec
