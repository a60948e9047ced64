module Prng = Yasksite_util.Prng

let star_offsets rank radius =
  let center = Array.make rank 0 in
  let axis d r =
    let o = Array.copy center in
    o.(d) <- r;
    o
  in
  let offs = ref [ center ] in
  for d = 0 to rank - 1 do
    for r = 1 to radius do
      offs := axis d r :: axis d (-r) :: !offs
    done
  done;
  !offs

let box_offsets rank radius =
  let rec go d acc =
    if d = rank then [ Array.of_list (List.rev acc) ]
    else begin
      let out = ref [] in
      for r = -radius to radius do
        out := go (d + 1) (r :: acc) @ !out
      done;
      !out
    end
  in
  go 0 []

let spec rng ~rank =
  if rank < 1 || rank > 3 then invalid_arg "Gen.spec: rank must be 1..3";
  let radius = 1 + Prng.int rng ~bound:2 in
  let candidates =
    if Prng.bool rng then star_offsets rank radius
    else box_offsets rank (min radius 1 + if rank < 3 then radius - 1 else 0)
  in
  let center = Array.make rank 0 in
  let chosen =
    List.filter
      (fun o -> o = center || Prng.float rng < 0.6)
      candidates
  in
  let chosen = if List.mem center chosen then chosen else center :: chosen in
  let terms =
    List.map
      (fun offsets ->
        let coeff = Prng.float_range rng ~lo:(-1.0) ~hi:1.0 in
        Expr.Mul (Expr.Const coeff, Expr.Ref { field = 0; offsets }))
      chosen
  in
  let expr =
    match terms with
    | [] -> assert false
    | t :: rest -> List.fold_left (fun a b -> Expr.Add (a, b)) t rest
  in
  let name = Printf.sprintf "random-%dd-r%d-%dpt" rank radius (List.length chosen) in
  Spec.v ~name ~rank expr
