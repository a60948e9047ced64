type t = { name : string; rank : int; n_fields : int; expr : Expr.t }

let validate t =
  if t.rank < 1 || t.rank > 3 then invalid_arg "Spec: rank must be 1..3";
  if t.n_fields < 1 then invalid_arg "Spec: need at least one field";
  let n_accesses =
    Expr.fold_accesses t.expr ~init:0 ~f:(fun n (a : Expr.access) ->
        if Array.length a.offsets <> t.rank then
          invalid_arg "Spec: access rank mismatch";
        if a.field < 0 || a.field >= t.n_fields then
          invalid_arg "Spec: field index out of range";
        n + 1)
  in
  if n_accesses = 0 then invalid_arg "Spec: expression reads no field";
  t

let v ~name ~rank ?(n_fields = 1) expr =
  validate { name; rank; n_fields; expr }

let with_name t name = { t with name }

let resolve t bindings =
  let env n = List.assoc_opt n bindings in
  { t with expr = Expr.subst_coeffs env t.expr }

let loop_vars rank =
  (* x fastest; names chosen to match Expr.to_c's axis naming. *)
  match rank with
  | 1 -> [ "x" ]
  | 2 -> [ "y"; "x" ]
  | _ -> [ "z"; "y"; "x" ]

let to_c t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "// stencil %s\n" t.name);
  let vars = loop_vars t.rank in
  List.iteri
    (fun i v ->
      Buffer.add_string buf
        (Printf.sprintf "%sfor (int %s = 0; %s < n%d; %s++)\n"
           (String.make (2 * i) ' ')
           v v i v))
    vars;
  let indent = String.make (2 * t.rank) ' ' in
  Buffer.add_string buf
    (Printf.sprintf "%sout(%s) = %s;\n" indent (String.concat "," vars)
       (Expr.to_c t.expr));
  Buffer.contents buf
