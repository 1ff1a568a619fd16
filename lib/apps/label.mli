(** The text the stores write and look up for record [n], built without
    [Printf]: a build writes one per record and a Memcached GET makes
    its key with it. *)

val make :
  prefix:string -> suffix:string -> fill:char -> len:int -> int -> string
(** [make ~prefix ~suffix ~fill ~len n] is
    [prefix ^ Printf.sprintf "%012d" n ^ suffix], cut to its first [len]
    bytes or padded to [len] with [fill]. *)
