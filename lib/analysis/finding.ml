(* The one record every rule emits. Split out of [Lint] so the rules
   ([Typed_rules], over [.cmt] typedtrees) can build it without a
   dependency cycle: [Lint] runs them and re-exports this type under
   its historical name. *)

type t = { file : string; line : int; rule : string; msg : string }
