(* The text Printf's "%012d" gives: a sign for a negative number, then
   its digits, zero-padded to 12 characters in all. Digits are taken
   from the non-positive [-|n|], which exists for every int. *)
let rec digits m = if m > -10 then 1 else 1 + digits (m / 10)

(* [s] at [at] in [b], cut at the end of [b] *)
let put b at s =
  let n = min (String.length s) (Bytes.length b - at) in
  if n > 0 then Bytes.blit_string s 0 b at n

let set b i c = if i < Bytes.length b then Bytes.unsafe_set b i c

let make ~prefix ~suffix ~fill ~len n =
  let b = Bytes.make len fill in
  put b 0 prefix;
  let sign = if n < 0 then 1 else 0 in
  let m = if n < 0 then n else -n in
  let d = digits m in
  (* the number fills [at, stop): its sign, zeros, then its d digits *)
  let at = String.length prefix in
  let stop = at + max 12 (sign + d) in
  if n < 0 then set b at '-';
  for i = at + sign to stop - d - 1 do
    set b i '0'
  done;
  let m = ref m in
  for i = stop - 1 downto stop - d do
    set b i (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
    m := !m / 10
  done;
  put b stop suffix;
  Bytes.unsafe_to_string b
