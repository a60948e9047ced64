(* The reference the bit-identity properties compare both execution
   backends against: a tree-walking evaluator that reads through the
   bounds-checked [Grid.get] and applies the expression tree's own
   IEEE-754 operations point by point. It shares no code with Plan,
   Lower, Codegen, Sweep or Prog, so an agreement is evidence, not an
   echo. *)

module Grid = Yasksite_grid.Grid
module Expr = Yasksite_stencil.Expr
module Spec = Yasksite_stencil.Spec
module Program = Yasksite_stencil.Program

(* The value of [e] at point [p]; [read field q] supplies field values
   at absolute coordinates [q]. *)
let rec eval read (e : Expr.t) p =
  let ev e = eval read e p in
  match e with
  | Const c -> c
  | Coeff n -> invalid_arg ("Oracle: unresolved coefficient " ^ n)
  | Ref { field; offsets } ->
      read field (Array.mapi (fun i d -> p.(i) + d) offsets)
  | Neg a -> -.ev a
  | Add (a, b) -> ev a +. ev b
  | Sub (a, b) -> ev a -. ev b
  | Mul (a, b) -> ev a *. ev b
  | Div (a, b) -> ev a /. ev b
  | Min (a, b) -> Float.min (ev a) (ev b)
  | Max (a, b) -> Float.max (ev a) (ev b)
  | Select (c, a, b) -> if ev c > 0.0 then ev a else ev b

(* One sweep of [spec] over the interior of [output]. *)
let sweep (spec : Spec.t) ~inputs ~output =
  Grid.fill output ~f:(eval (fun f q -> Grid.get inputs.(f) q) spec.expr)

(* [steps] ping-pong sweeps starting from [a]; the grid holding the
   final state, as [Wavefront.steps] returns it. *)
let steps spec ~a ~b ~steps =
  for t = 0 to steps - 1 do
    let src, dst = if t mod 2 = 0 then (a, b) else (b, a) in
    sweep spec ~inputs:[| src |] ~output:dst
  done;
  if steps mod 2 = 0 then a else b

(* A program field at [p]: an input read, or its producing stage's
   expression evaluated on the spot, every intermediate recomputed
   recursively and nothing materialized. *)
let rec field (prog : Program.t) ~inputs name p =
  match List.assoc_opt name inputs with
  | Some g -> Grid.get g p
  | None ->
      let is_name (s : Program.stage) = s.name = name in
      let s = Option.get (Array.find_opt is_name prog.stages) in
      eval (fun f q -> field prog ~inputs s.reads.(f) q) s.expr p

(* Every program output over the inputs' interior, as row-major value
   lists in output order. *)
let program (prog : Program.t) ~inputs =
  let _, g = List.hd inputs in
  Array.to_list prog.outputs
  |> List.map (fun name ->
         let vals = ref [] in
         Grid.iter_interior g ~f:(fun p ->
             vals := field prog ~inputs name p :: !vals);
         (name, List.rev !vals))
