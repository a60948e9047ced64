(* The reference the lowering's common-subexpression elimination is
   compared against bit for bit: [lower] as it was before shared
   subtrees were kept in temporaries. The folded tree becomes postfix
   code in its own operation order, every occurrence of a repeated
   subtree computed again, and the plan declares no temporaries. It
   calls the library's [Analysis], [Expr.cfold] and [Plan.v] and nothing
   of [Lower], so an agreement checks the sharing rather than restating
   it. A plan without temporaries is also what today's codegen emits
   unchanged (the suite sources stay pinned), so sweeping this plan on
   either backend is the pre-sharing behaviour. *)

module Analysis = Yasksite_stencil.Analysis
module Expr = Yasksite_stencil.Expr
module Plan = Yasksite_stencil.Plan
module Spec = Yasksite_stencil.Spec

let pops : Plan.instr -> int = function
  | Push _ | Load _ | Sym _ -> 0
  | Neg -> 1
  | Add | Sub | Mul | Div | Min | Max -> 2
  | Sel -> 3
  | Save _ | Recall _ -> invalid_arg "Lower_reference: no temporaries"

let postfix instrs =
  let code = Array.of_list instrs in
  let d = ref 0 and depth = ref 0 in
  Array.iter
    (fun i ->
      d := !d - pops i + 1;
      depth := max !depth !d)
    code;
  (code, !depth)

let program slot_of e =
  let buf = ref [] in
  let push i = buf := i :: !buf in
  let rec go (e : Expr.t) =
    match e with
    | Const c -> push (Plan.Push c)
    | Coeff n -> push (Plan.Sym n)
    | Ref a -> push (Plan.Load (slot_of a))
    | Neg a ->
        go a;
        push Plan.Neg
    | Add (a, b) ->
        go a;
        go b;
        push Plan.Add
    | Sub (a, b) ->
        go a;
        go b;
        push Plan.Sub
    | Mul (a, b) ->
        go a;
        go b;
        push Plan.Mul
    | Div (a, b) ->
        go a;
        go b;
        push Plan.Div
    | Min (a, b) ->
        go a;
        go b;
        push Plan.Min
    | Max (a, b) ->
        go a;
        go b;
        push Plan.Max
    | Select (c, a, b) ->
        go c;
        go a;
        go b;
        push Plan.Sel
  in
  go e;
  postfix (List.rev !buf)

let lower (spec : Spec.t) : Plan.t =
  let info = Analysis.of_spec spec in
  let accesses = Array.of_list info.Analysis.accesses in
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) accesses;
  let code, depth = program (Hashtbl.find tbl) (Expr.cfold spec.Spec.expr) in
  Plan.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields ~accesses ~code ~depth ~temps:0
