type workspace = { k : float array array; ytmp : float array }

let make_workspace (tab : Tableau.t) ~dim =
  { k = Array.init tab.Tableau.s (fun _ -> Array.make dim 0.0);
    ytmp = Array.make dim 0.0 }

let step ws (tab : Tableau.t) (ivp : Ivp.t) ~tm ~h ~y ~out =
  let dim = ivp.Ivp.dim in
  let s = tab.Tableau.s in
  for i = 0 to s - 1 do
    let ytmp = ws.ytmp in
    Array.blit y 0 ytmp 0 dim;
    for j = 0 to i - 1 do
      let aij = tab.Tableau.a.(i).(j) in
      if aij <> 0.0 then begin
        let kj = ws.k.(j) in
        for d = 0 to dim - 1 do
          ytmp.(d) <- ytmp.(d) +. (h *. aij *. kj.(d))
        done
      end
    done;
    ivp.Ivp.rhs ~tm:(tm +. (tab.Tableau.c.(i) *. h)) ~y:ytmp ~dydt:ws.k.(i)
  done;
  Array.blit y 0 out 0 dim;
  for i = 0 to s - 1 do
    let bi = tab.Tableau.b.(i) in
    if bi <> 0.0 then begin
      let ki = ws.k.(i) in
      for d = 0 to dim - 1 do
        out.(d) <- out.(d) +. (h *. bi *. ki.(d))
      done
    end
  done

let integrate tab (ivp : Ivp.t) ~steps =
  if steps <= 0 then invalid_arg "Rk.integrate: steps must be positive";
  let dim = ivp.Ivp.dim in
  let ws = make_workspace tab ~dim in
  let h = (ivp.Ivp.t_end -. ivp.Ivp.t0) /. float_of_int steps in
  let y = Array.copy ivp.Ivp.y0 in
  let out = Array.make dim 0.0 in
  let tm = ref ivp.Ivp.t0 in
  for _ = 1 to steps do
    step ws tab ivp ~tm:!tm ~h ~y ~out;
    Array.blit out 0 y 0 dim;
    tm := !tm +. h
  done;
  y

let max_norm_diff a b =
  let err = ref 0.0 in
  Array.iteri (fun i v -> err := max !err (abs_float (v -. b.(i)))) a;
  !err

let observed_order tab ivp =
  let reference = integrate tab ivp ~steps:1024 in
  let coarse = integrate tab ivp ~steps:8 in
  let fine = integrate tab ivp ~steps:16 in
  let e1 = max_norm_diff coarse reference in
  let e2 = max_norm_diff fine reference in
  log (e1 /. e2) /. log 2.0
