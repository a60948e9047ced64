type t = {
  dim : int;
  rhs : tm:float -> y:float array -> dydt:float array -> unit;
  y0 : float array;
  t_end : float;
  exact : (float -> float array) option;
}

let v ~rhs ~y0 ~t_end ?exact () =
  let dim = Array.length y0 in
  if dim = 0 then invalid_arg "Ivp.v: empty state";
  if t_end <= 0.0 then invalid_arg "Ivp.v: t_end must be positive";
  { dim; rhs; y0 = Array.copy y0; t_end; exact }

let exp_decay ~lambda =
  v
    ~rhs:(fun ~tm:_ ~y ~dydt -> dydt.(0) <- -.lambda *. y.(0))
    ~y0:[| 1.0 |] ~t_end:1.0
    ~exact:(fun t -> [| exp (-.lambda *. t) |])
    ()

let harmonic ~omega =
  v
    ~rhs:(fun ~tm:_ ~y ~dydt ->
      dydt.(0) <- y.(1);
      dydt.(1) <- -.(omega *. omega) *. y.(0))
    ~y0:[| 1.0; 0.0 |] ~t_end:1.0
    ~exact:(fun t -> [| cos (omega *. t); -.omega *. sin (omega *. t) |])
    ()

let diagonal ~lambdas =
  let n = Array.length lambdas in
  v
    ~rhs:(fun ~tm:_ ~y ~dydt ->
      for i = 0 to n - 1 do
        dydt.(i) <- -.lambdas.(i) *. y.(i)
      done)
    ~y0:(Array.make n 1.0) ~t_end:1.0
    ~exact:(fun t -> Array.map (fun l -> exp (-.l *. t)) lambdas)
    ()

let brusselator =
  let a = 1.0 and b = 1.7 in
  v
    ~rhs:(fun ~tm:_ ~y ~dydt ->
      let x = y.(0) and z = y.(1) in
      dydt.(0) <- a +. (x *. x *. z) -. ((b +. 1.0) *. x);
      dydt.(1) <- (b *. x) -. (x *. x *. z))
    ~y0:[| 1.0; 1.0 |] ~t_end:2.0 ()

let error_vs_exact t ~y =
  match t.exact with
  | None -> invalid_arg "Ivp.error_vs_exact: no exact solution"
  | Some f ->
      let reference = f t.t_end in
      let err = ref 0.0 in
      Array.iteri
        (fun i v -> err := max !err (abs_float (v -. reference.(i))))
        y;
      !err
