let fld ?(field = 0) offsets =
  Expr.Ref { field; offsets = Array.of_list offsets }

let c x = Expr.Const x

let p name = Expr.Coeff name

let ( +: ) a b = Expr.Add (a, b)

let ( -: ) a b = Expr.Sub (a, b)

let ( *: ) a b = Expr.Mul (a, b)

let ( /: ) a b = Expr.Div (a, b)

let neg a = Expr.Neg a

let fmax a b = Expr.Max (a, b)

let select cond a b = Expr.Select (cond, a, b)

let sum = function
  | [] -> invalid_arg "Dsl.sum: empty list"
  | x :: rest -> List.fold_left ( +: ) x rest
