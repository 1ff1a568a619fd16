(* The splitmix64 state, unboxed: eight bytes read and written with the
   native-endian primitives, so advancing it allocates nothing. A
   [mutable state : int64] field would box a fresh int64 on every draw.
   [bits64] and [mix64] inline into [int], [uniform] and the samplers
   below, so their int64 intermediates stay in registers too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline][@zero_alloc] bits64 g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix64 s

let split g = of_state (bits64 g)

let[@zero_alloc] int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection-free for our purposes: 62 random bits mod n (62, not 63,
     so Int64.to_int cannot produce a negative OCaml int); the modulo
     bias is < n / 2^62, negligible for simulation bounds. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod n

let[@inline] uniform g =
  (* 53 random bits into [0, 1) *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int v *. 0x1.0p-53

let float g x = uniform g *. x

let exponential g ~mean =
  let u = 1. -. uniform g in
  -.mean *. log u

let normal g ~mean ~std =
  let u1 = 1. -. uniform g and u2 = uniform g in
  let r = sqrt (-2. *. log u1) in
  mean +. (std *. r *. cos (2. *. Float.pi *. u2))

let discrete g weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.discrete: empty weights";
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Rng.discrete: non-positive weight sum";
  let x = uniform g *. total in
  let rec pick i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else pick (i + 1) acc
  in
  pick 0 0.

module Zipf = struct
  (* Standard Gray et al. incremental zipfian generator (as used by YCSB). *)
  type sampler = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
  }

  let zeta n theta =
    let acc = ref 0. in
    for i = 1 to n do
      acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
    done;
    !acc

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if theta <= 0. then { n; theta = 0.; alpha = 0.; zetan = 0.; eta = 0. }
    else begin
      let zetan = zeta n theta in
      let zeta2 = zeta 2 theta in
      let alpha = 1. /. (1. -. theta) in
      let eta =
        (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
        /. (1. -. (zeta2 /. zetan))
      in
      { n; theta; alpha; zetan; eta }
    end

  let sample g s =
    if s.theta <= 0. then int g s.n
    else begin
      let u = uniform g in
      let uz = u *. s.zetan in
      if uz < 1. then 0
      else if uz < 1. +. Float.pow 0.5 s.theta then 1
      else
        let v =
          float_of_int s.n
          *. Float.pow ((s.eta *. u) -. s.eta +. 1.) s.alpha
        in
        let k = int_of_float v in
        if k >= s.n then s.n - 1 else if k < 0 then 0 else k
    end
end
