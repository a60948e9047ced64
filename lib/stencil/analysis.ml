type shape = Point | Star | Box

type t = {
  spec : Spec.t;
  accesses : Expr.access list;
  radius : int array;
  shape : shape;
  adds : int;
  muls : int;
  divs : int;
  flops : int;
  loads : int;
  stores : int;
  read_fields : int list;
}

let rec count_ops (adds, muls, divs) (e : Expr.t) =
  match e with
  | Const _ | Coeff _ | Ref _ -> (adds, muls, divs)
  | Neg x -> count_ops (adds, muls, divs) x
  | Add (a, b) | Sub (a, b) ->
      count_ops (count_ops (adds + 1, muls, divs) a) b
  | Mul (a, b) -> count_ops (count_ops (adds, muls + 1, divs) a) b
  | Div (a, b) -> count_ops (count_ops (adds, muls, divs + 1) a) b
  (* Compare-select ops retire on the FP add ports on every modern
     core (vminpd/vmaxpd/vcmppd+vblendvpd), so they are billed as
     additive work for throughput purposes. *)
  | Min (a, b) | Max (a, b) -> count_ops (count_ops (adds + 1, muls, divs) a) b
  | Select (c, a, b) ->
      count_ops (count_ops (count_ops (adds + 1, muls, divs) c) a) b

let classify accesses =
  let nonzero_axes (a : Expr.access) =
    Array.fold_left (fun n d -> if d <> 0 then n + 1 else n) 0 a.offsets
  in
  let max_axes =
    List.fold_left (fun m a -> max m (nonzero_axes a)) 0 accesses
  in
  if max_axes = 0 then Point else if max_axes <= 1 then Star else Box

let of_spec (spec : Spec.t) =
  let all =
    Expr.fold_accesses spec.expr ~init:[] ~f:(fun acc a -> a :: acc)
  in
  let accesses = List.sort_uniq compare all in
  let radius = Array.make spec.rank 0 in
  List.iter
    (fun (a : Expr.access) ->
      Array.iteri (fun i d -> radius.(i) <- max radius.(i) (abs d)) a.offsets)
    accesses;
  (* Ops are counted on the folded tree, the code a plan executes: two
     specs that lower to one plan bill the same work. *)
  let adds, muls, divs = count_ops (0, 0, 0) (Expr.cfold spec.expr) in
  let read_fields =
    List.sort_uniq compare (List.map (fun (a : Expr.access) -> a.field) all)
  in
  { spec; accesses; radius; shape = classify accesses; adds; muls; divs;
    flops = adds + muls + divs; loads = List.length accesses; stores = 1;
    read_fields }

let halo t = Array.copy t.radius

let accesses_of_field t field =
  List.filter_map
    (fun (a : Expr.access) -> if a.field = field then Some a.offsets else None)
    t.accesses

let min_code_balance t =
  (* One 8-byte read stream per distinct input field, plus the output:
     write-allocate (read) + write-back (write) = 16 bytes. *)
  let reads = List.length t.read_fields in
  float_of_int ((8 * reads) + 16)

let arithmetic_intensity t = float_of_int t.flops /. min_code_balance t

let shape_name = function Point -> "point" | Star -> "star" | Box -> "box"

let describe t =
  let radius_str =
    String.concat "x" (Array.to_list (Array.map string_of_int t.radius))
  in
  [ t.spec.name;
    string_of_int t.spec.rank;
    shape_name t.shape;
    radius_str;
    string_of_int t.flops;
    string_of_int t.loads;
    Printf.sprintf "%.0f" (min_code_balance t);
    Printf.sprintf "%.3f" (arithmetic_intensity t) ]
