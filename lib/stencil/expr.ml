type access = { field : int; offsets : int array }

type t =
  | Const of float
  | Coeff of string
  | Ref of access
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Min of t * t
  | Max of t * t
  | Select of t * t * t

let rec equal a b =
  match (a, b) with
  | Const x, Const y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Coeff x, Coeff y -> String.equal x y
  | Ref x, Ref y -> x = y
  | Neg x, Neg y -> equal x y
  | Add (a, b), Add (c, d)
  | Sub (a, b), Sub (c, d)
  | Mul (a, b), Mul (c, d)
  | Div (a, b), Div (c, d)
  | Min (a, b), Min (c, d)
  | Max (a, b), Max (c, d) ->
      equal a c && equal b d
  | Select (a, b, c), Select (d, e, f) -> equal a d && equal b e && equal c f
  | _ -> false

let rec fold_accesses e ~init ~f =
  match e with
  | Const _ | Coeff _ -> init
  | Ref a -> f init a
  | Neg x -> fold_accesses x ~init ~f
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
    ->
      fold_accesses b ~init:(fold_accesses a ~init ~f) ~f
  | Select (c, a, b) ->
      fold_accesses b
        ~init:(fold_accesses a ~init:(fold_accesses c ~init ~f) ~f)
        ~f

let coeff_names e =
  let rec go acc = function
    | Const _ | Ref _ -> acc
    | Coeff n -> n :: acc
    | Neg x -> go acc x
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b)
    | Max (a, b) ->
        go (go acc a) b
    | Select (c, a, b) -> go (go (go acc c) a) b
  in
  List.sort_uniq compare (go [] e)

let rec subst_coeffs env = function
  | Const c -> Const c
  | Coeff n -> (match env n with Some v -> Const v | None -> Coeff n)
  | Ref a -> Ref a
  | Neg x -> Neg (subst_coeffs env x)
  | Add (a, b) -> Add (subst_coeffs env a, subst_coeffs env b)
  | Sub (a, b) -> Sub (subst_coeffs env a, subst_coeffs env b)
  | Mul (a, b) -> Mul (subst_coeffs env a, subst_coeffs env b)
  | Div (a, b) -> Div (subst_coeffs env a, subst_coeffs env b)
  | Min (a, b) -> Min (subst_coeffs env a, subst_coeffs env b)
  | Max (a, b) -> Max (subst_coeffs env a, subst_coeffs env b)
  | Select (c, a, b) ->
      Select (subst_coeffs env c, subst_coeffs env a, subst_coeffs env b)

let rec map_accesses f = function
  | Const c -> Const c
  | Coeff n -> Coeff n
  | Ref a -> Ref (f a)
  | Neg x -> Neg (map_accesses f x)
  | Add (a, b) -> Add (map_accesses f a, map_accesses f b)
  | Sub (a, b) -> Sub (map_accesses f a, map_accesses f b)
  | Mul (a, b) -> Mul (map_accesses f a, map_accesses f b)
  | Div (a, b) -> Div (map_accesses f a, map_accesses f b)
  | Min (a, b) -> Min (map_accesses f a, map_accesses f b)
  | Max (a, b) -> Max (map_accesses f a, map_accesses f b)
  | Select (c, a, b) ->
      Select (map_accesses f c, map_accesses f a, map_accesses f b)

let rec subst_accesses f = function
  | Const c -> Const c
  | Coeff n -> Coeff n
  | Ref a -> f a
  | Neg x -> Neg (subst_accesses f x)
  | Add (a, b) -> Add (subst_accesses f a, subst_accesses f b)
  | Sub (a, b) -> Sub (subst_accesses f a, subst_accesses f b)
  | Mul (a, b) -> Mul (subst_accesses f a, subst_accesses f b)
  | Div (a, b) -> Div (subst_accesses f a, subst_accesses f b)
  | Min (a, b) -> Min (subst_accesses f a, subst_accesses f b)
  | Max (a, b) -> Max (subst_accesses f a, subst_accesses f b)
  | Select (c, a, b) ->
      Select (subst_accesses f c, subst_accesses f a, subst_accesses f b)

(* Exact: each folded node applies the very operation the tree would
   have applied at run time. *)
let rec cfold e =
  match e with
  | Const _ | Coeff _ | Ref _ -> e
  | Neg a -> ( match cfold a with Const x -> Const (-.x) | a' -> Neg a')
  | Add (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x +. y)
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x -. y)
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x *. y)
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x /. y)
      | a', b' -> Div (a', b'))
  | Min (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (Float.min x y)
      | a', b' -> Min (a', b'))
  | Max (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (Float.max x y)
      | a', b' -> Max (a', b'))
  | Select (c, a, b) -> (
      (* Folded only when ALL operands are constant: folding just the
         condition would drop the untaken branch's loads from the access
         table and change the kernel's read set. *)
      match (cfold c, cfold a, cfold b) with
      | Const vc, Const va, Const vb -> Const (if vc > 0.0 then va else vb)
      | c', a', b' -> Select (c', a', b'))

let axis_names = [| "z"; "y"; "x" |]

let default_field_name = Printf.sprintf "f%d"

let access_to_c ?(field_name = default_field_name) a =
  let rank = Array.length a.offsets in
  let coords =
    Array.to_list
      (Array.mapi
         (fun i d ->
           (* Name dimensions x (fastest) backwards from the end. *)
           let name = axis_names.(3 - rank + i) in
           if d = 0 then name
           else if d > 0 then Printf.sprintf "%s+%d" name d
           else Printf.sprintf "%s-%d" name (-d))
         a.offsets)
  in
  Printf.sprintf "%s(%s)" (field_name a.field) (String.concat "," coords)

(* Precedence levels: 0 additive, 1 multiplicative, 2 unary/atom. *)
let rec render fn prec e =
  let paren p s = if p < prec then "(" ^ s ^ ")" else s in
  match e with
  | Const c -> Printf.sprintf "%.17g" c
  | Coeff n -> n
  | Ref a -> access_to_c ~field_name:fn a
  | Neg x -> paren 1 ("-" ^ render fn 2 x)
  | Add (a, b) -> paren 0 (render fn 0 a ^ " + " ^ render fn 1 b)
  | Sub (a, b) -> paren 0 (render fn 0 a ^ " - " ^ render fn 1 b)
  | Mul (a, b) -> paren 1 (render fn 1 a ^ " * " ^ render fn 2 b)
  | Div (a, b) -> paren 1 (render fn 1 a ^ " / " ^ render fn 2 b)
  | Min (a, b) ->
      Printf.sprintf "min(%s, %s)" (render fn 0 a) (render fn 0 b)
  | Max (a, b) ->
      Printf.sprintf "max(%s, %s)" (render fn 0 a) (render fn 0 b)
  | Select (c, a, b) ->
      Printf.sprintf "select(%s, %s, %s)" (render fn 0 c) (render fn 0 a)
        (render fn 0 b)

let to_c ?(field_name = default_field_name) e = render field_name 0 e
