type _ Effect.t +=
  | Wait : Clock.cycles -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let wait dt = Effect.perform (Wait dt)
let suspend register = Effect.perform (Suspend register)
