type t =
  | System
  | Fun of (unit -> float)
  | Manual of float ref

let system = System

let of_fun f = Fun f

let manual ?(start = 0.0) () = Manual (ref start)

let now = function
  | System -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  | Fun f -> f ()
  | Manual r -> !r

let advance t dt =
  match t with
  | Manual r ->
      if dt < 0.0 then invalid_arg "Clock.advance: negative delta";
      r := !r +. dt
  | System | Fun _ -> invalid_arg "Clock.advance: not a manual clock"
