module Spec = Yasksite_stencil.Spec
module Expr = Yasksite_stencil.Expr
module Tableau = Yasksite_ode.Tableau
module Pde = Yasksite_ode.Pde

type buffer = State | Stage of int | Stage_input | Next_state

type kernel = {
  label : string;
  spec : Spec.t;
  inputs : buffer array;
  output : buffer;
}

type t = {
  name : string;
  scheme : [ `Unfused | `Fused | `Mixed of bool array ];
  kernels : kernel list;
}

let buffers t =
  List.sort_uniq compare
    (List.concat_map
       (fun k -> k.output :: Array.to_list k.inputs)
       t.kernels)

let sweeps_per_step t = List.length t.kernels

let center rank = Array.make rank 0

(* Point-wise linear combination: out = f0 + sum_k coeff_k * f_k. *)
let lincomb_expr ~rank coeffs =
  let base = Expr.Ref { Expr.field = 0; offsets = center rank } in
  List.fold_left
    (fun acc (field, coeff) ->
      Expr.Add
        (acc, Expr.Mul (Expr.Const coeff, Expr.Ref { Expr.field; offsets = center rank })))
    base coeffs

(* Non-zero row entries of the tableau matrix, as (stage, coeff*h). *)
let scaled_row row ~h =
  Array.to_list row
  |> List.mapi (fun j a -> (j, a *. h))
  |> List.filter (fun (_, x) -> x <> 0.0)

let update_kernel (tab : Tableau.t) (pde : Pde.t) ~h ~prefix =
  let rank = pde.Pde.rank in
  let weights = scaled_row tab.Tableau.b ~h in
  let coeffs = List.mapi (fun k (_, w) -> (k + 1, w)) weights in
  let expr = lincomb_expr ~rank coeffs in
  let inputs =
    Array.of_list (State :: List.map (fun (j, _) -> Stage j) weights)
  in
  { label = prefix ^ "-update";
    spec =
      Spec.v ~name:(prefix ^ "-update") ~rank ~n_fields:(Array.length inputs)
        expr;
    inputs;
    output = Next_state }

(* Kernels of stage [i] under a fusion decision. *)
let stage_kernels (tab : Tableau.t) (pde : Pde.t) ~h ~prefix ~fuse i =
  let rank = pde.Pde.rank in
  let row = scaled_row tab.Tableau.a.(i) ~h in
  if row = [] then
    (* K_i = F(y) directly; nothing to fuse. *)
    [ { label = Printf.sprintf "%s-rhs%d" prefix i;
        spec = Spec.with_name pde.Pde.spec (Printf.sprintf "%s-rhs%d" prefix i);
        inputs = [| State |];
        output = Stage i } ]
  else begin
    let coeffs = List.mapi (fun k (_, w) -> (k + 1, w)) row in
    if fuse then begin
      (* Substitute y + h sum a_ij K_j for every state access of the
         RHS stencil: one sweep, more streams. *)
      let expr =
        Expr.subst_accesses
          (fun (acc : Expr.access) ->
            let base = Expr.Ref { acc with Expr.field = 0 } in
            List.fold_left
              (fun e (field, coeff) ->
                Expr.Add
                  ( e,
                    Expr.Mul
                      (Expr.Const coeff, Expr.Ref { acc with Expr.field = field })
                  ))
              base coeffs)
          pde.Pde.spec.Spec.expr
      in
      [ { label = Printf.sprintf "%s-stage%d" prefix i;
          spec =
            Spec.v
              ~name:(Printf.sprintf "%s-stage%d" prefix i)
              ~rank
              ~n_fields:(1 + List.length row)
              expr;
          inputs = Array.of_list (State :: List.map (fun (j, _) -> Stage j) row);
          output = Stage i } ]
    end
    else begin
      (* Materialise the stage input, then apply the RHS stencil. *)
      let axpy =
        { label = Printf.sprintf "%s-axpy%d" prefix i;
          spec =
            Spec.v
              ~name:(Printf.sprintf "%s-axpy%d" prefix i)
              ~rank
              ~n_fields:(1 + List.length row)
              (lincomb_expr ~rank coeffs);
          inputs = Array.of_list (State :: List.map (fun (j, _) -> Stage j) row);
          output = Stage_input }
      in
      let rhs =
        { label = Printf.sprintf "%s-rhs%d" prefix i;
          spec = Spec.with_name pde.Pde.spec (Printf.sprintf "%s-rhs%d" prefix i);
          inputs = [| Stage_input |];
          output = Stage i }
      in
      [ axpy; rhs ]
    end
  end

let build (tab : Tableau.t) (pde : Pde.t) ~h ~mask ~scheme ~suffix =
  let prefix = Printf.sprintf "%s-%s-%s" tab.Tableau.name pde.Pde.name suffix in
  let kernels =
    List.concat
      (List.init tab.Tableau.s (fun i ->
           stage_kernels tab pde ~h ~prefix ~fuse:mask.(i) i))
  in
  { name = prefix;
    scheme;
    kernels = kernels @ [ update_kernel tab pde ~h ~prefix ] }

let with_mask (tab : Tableau.t) (pde : Pde.t) ~h ~mask =
  if Array.length mask <> tab.Tableau.s then
    invalid_arg "Variant.with_mask: mask length must equal the stage count";
  let suffix =
    "mask-"
    ^ String.concat ""
        (Array.to_list (Array.map (fun b -> if b then "f" else "u") mask))
  in
  build tab pde ~h ~mask ~scheme:(`Mixed (Array.copy mask)) ~suffix

let unfused (tab : Tableau.t) (pde : Pde.t) ~h =
  build tab pde ~h
    ~mask:(Array.make tab.Tableau.s false)
    ~scheme:`Unfused ~suffix:"unfused"

let fused (tab : Tableau.t) (pde : Pde.t) ~h =
  build tab pde ~h
    ~mask:(Array.make tab.Tableau.s true)
    ~scheme:`Fused ~suffix:"fused"

let all tab pde ~h = [ unfused tab pde ~h; fused tab pde ~h ]

let all_mixed (tab : Tableau.t) pde ~h =
  let s = tab.Tableau.s in
  if s > 4 then all tab pde ~h
  else begin
    (* Stages with empty coefficient rows have no fusion decision; fix
       their mask bit to avoid duplicate variants. *)
    let free =
      Array.init s (fun i -> scaled_row tab.Tableau.a.(i) ~h <> [])
    in
    let free_indices =
      List.filter (fun i -> free.(i)) (List.init s (fun i -> i))
    in
    let n_free = List.length free_indices in
    List.init (1 lsl n_free) (fun bits ->
        let mask = Array.make s false in
        List.iteri
          (fun pos i -> mask.(i) <- bits land (1 lsl pos) <> 0)
          free_indices;
        with_mask tab pde ~h ~mask)
  end
