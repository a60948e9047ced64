module Grid = Yasksite_grid.Grid
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower
open Yasksite_stencil.Dsl

type boundary = Dirichlet of float | Periodic

type t = {
  name : string;
  spec : Spec.t;
  rank : int;
  dims : int array;
  dx : float;
  boundary : boundary;
  init : int array -> float;
  exact : (float -> int array -> float) option;
}

let pi = 4.0 *. atan 1.0

let laplacian_expr ~rank ~coeff =
  let axis_neighbours =
    match rank with
    | 1 -> [ fld [ -1 ]; fld [ 1 ] ]
    | 2 -> [ fld [ -1; 0 ]; fld [ 1; 0 ]; fld [ 0; -1 ]; fld [ 0; 1 ] ]
    | _ ->
        [ fld [ -1; 0; 0 ]; fld [ 1; 0; 0 ]; fld [ 0; -1; 0 ];
          fld [ 0; 1; 0 ]; fld [ 0; 0; -1 ]; fld [ 0; 0; 1 ] ]
  in
  let center = fld (List.init rank (fun _ -> 0)) in
  c coeff *: (sum axis_neighbours -: (c (2.0 *. float_of_int rank) *: center))

let heat ~rank ~n ~alpha =
  if rank < 1 || rank > 3 then invalid_arg "Pde.heat: rank must be 1..3";
  if n < 2 then invalid_arg "Pde.heat: need at least two interior points";
  let dx = 1.0 /. float_of_int (n + 1) in
  let expr = laplacian_expr ~rank ~coeff:(alpha /. (dx *. dx)) in
  let spec = Spec.v ~name:(Printf.sprintf "heat-%dd-rhs" rank) ~rank expr in
  let coord i = float_of_int (i + 1) *. dx in
  let mode idx =
    Array.fold_left (fun acc i -> acc *. sin (pi *. coord i)) 1.0 idx
  in
  let decay tm = exp (-.float_of_int rank *. alpha *. pi *. pi *. tm) in
  { name = Printf.sprintf "heat-%dd-n%d" rank n;
    spec;
    rank;
    dims = Array.make rank n;
    dx;
    boundary = Dirichlet 0.0;
    init = mode;
    exact = Some (fun tm idx -> decay tm *. mode idx) }

let advection_1d ~n ~velocity =
  if velocity <= 0.0 then invalid_arg "Pde.advection_1d: velocity must be > 0";
  let dx = 1.0 /. float_of_int n in
  let a = velocity /. dx in
  (* Upwind: du/dt = -v (u_i - u_{i-1}) / dx *)
  let expr = c a *: (fld [ -1 ] -: fld [ 0 ]) in
  let spec = Spec.v ~name:"advection-1d-rhs" ~rank:1 expr in
  let profile x = sin (2.0 *. pi *. x) in
  { name = Printf.sprintf "advection-1d-n%d" n;
    spec;
    rank = 1;
    dims = [| n |];
    dx;
    boundary = Periodic;
    init = (fun idx -> profile (float_of_int idx.(0) *. dx));
    exact =
      Some
        (fun tm idx ->
          let x = (float_of_int idx.(0) *. dx) -. (velocity *. tm) in
          profile (x -. floor x)) }

let advection_2d ~n ~velocity =
  let vy, vx = velocity in
  if vy <= 0.0 || vx <= 0.0 then
    invalid_arg "Pde.advection_2d: velocity components must be > 0";
  let dx = 1.0 /. float_of_int n in
  let ay = vy /. dx and ax = vx /. dx in
  let expr =
    (c ay *: (fld [ -1; 0 ] -: fld [ 0; 0 ]))
    +: (c ax *: (fld [ 0; -1 ] -: fld [ 0; 0 ]))
  in
  let spec = Spec.v ~name:"advection-2d-rhs" ~rank:2 expr in
  let profile y x = sin (2.0 *. pi *. y) *. sin (2.0 *. pi *. x) in
  let frac v = v -. floor v in
  { name = Printf.sprintf "advection-2d-n%d" n;
    spec;
    rank = 2;
    dims = [| n; n |];
    dx;
    boundary = Periodic;
    init =
      (fun idx ->
        profile (float_of_int idx.(0) *. dx) (float_of_int idx.(1) *. dx));
    exact =
      Some
        (fun tm idx ->
          profile
            (frac ((float_of_int idx.(0) *. dx) -. (vy *. tm)))
            (frac ((float_of_int idx.(1) *. dx) -. (vx *. tm)))) }

let fisher_kpp ~rank ~n ~diffusion ~rate =
  if rank < 1 || rank > 3 then invalid_arg "Pde.fisher_kpp: rank must be 1..3";
  if n < 2 then invalid_arg "Pde.fisher_kpp: need at least two interior points";
  if diffusion <= 0.0 then invalid_arg "Pde.fisher_kpp: diffusion must be > 0";
  let dx = 1.0 /. float_of_int (n + 1) in
  let center = fld (List.init rank (fun _ -> 0)) in
  (* u' = D lap u + r u - r u^2 *)
  let expr =
    laplacian_expr ~rank ~coeff:(diffusion /. (dx *. dx))
    +: (c rate *: center)
    -: (c rate *: center *: center)
  in
  let spec =
    Spec.v ~name:(Printf.sprintf "fisher-kpp-%dd-rhs" rank) ~rank expr
  in
  let coord i = float_of_int (i + 1) *. dx in
  let bump idx =
    Array.fold_left
      (fun acc i ->
        let x = coord i in
        acc *. exp (-40.0 *. ((x -. 0.5) ** 2.0)))
      0.8 idx
  in
  { name = Printf.sprintf "fisher-kpp-%dd-n%d" rank n;
    spec;
    rank;
    dims = Array.make rank n;
    dx;
    boundary = Dirichlet 0.0;
    init = bump;
    exact = None }

let halo t = Analysis.halo (Analysis.of_spec t.spec)

let apply_boundary t g =
  match t.boundary with
  | Dirichlet v -> Grid.halo_dirichlet g v
  | Periodic -> Grid.halo_periodic g

let init_grid t =
  let g = Grid.create ~halo:(halo t) ~dims:t.dims () in
  Grid.fill g ~f:t.init;
  apply_boundary t g;
  g

(* Flat-vector view: copy the state in, refresh halos, evaluate the
   stencil row by row through the plan driver straight into the
   derivative. The plan is bound once against the state grid, which
   doubles as the (never written) output. *)
let to_ivp t ~t_end =
  let points = Array.fold_left ( * ) 1 t.dims in
  let state = Grid.create ~halo:(halo t) ~dims:t.dims () in
  let drv =
    Lower.driver
      (Lower.bind (Lower.lower t.spec) ~inputs:[| state |] ~output:state)
  in
  let nx = t.dims.(t.rank - 1) in
  let outer = Array.make (t.rank - 1) 0 in
  let rhs ~tm:_ ~y ~dydt =
    let pos = ref 0 in
    Grid.iter_interior state ~f:(fun idx ->
        Grid.set state idx y.(!pos);
        incr pos);
    apply_boundary t state;
    for row = 0 to (points / nx) - 1 do
      (* row-major: the last leading coordinate varies fastest *)
      let r = ref row in
      for i = t.rank - 2 downto 0 do
        outer.(i) <- !r mod t.dims.(i);
        r := !r / t.dims.(i)
      done;
      Lower.set_row drv outer;
      Lower.eval_row drv 0 nx dydt (row * nx)
    done
  in
  let y0 = Array.make points 0.0 in
  let pos = ref 0 in
  let tmp = init_grid t in
  Grid.iter_interior tmp ~f:(fun idx ->
      y0.(!pos) <- Grid.get tmp idx;
      incr pos);
  let exact =
    Option.map
      (fun f tm ->
        let out = Array.make points 0.0 in
        let pos = ref 0 in
        Grid.iter_interior state ~f:(fun idx ->
            out.(!pos) <- f tm idx;
            incr pos);
        out)
      t.exact
  in
  Ivp.v ~rhs ~y0 ~t_end ?exact ()

let grid_error_vs_exact t ~tm g =
  match t.exact with
  | None -> invalid_arg "Pde.grid_error_vs_exact: no exact solution"
  | Some f ->
      let err = ref 0.0 in
      Grid.iter_interior g ~f:(fun idx ->
          err := max !err (abs_float (Grid.get g idx -. f tm idx)));
      !err
