(* Native translation validator: the YS6xx rule family.

   Stencil.Codegen emits an OCaml compilation unit per specialization
   variant; Engine.Native compiles it out of process and the result is
   cached forever in the kern-v1 store -- so a miscompile there is a
   *permanent* wrong answer.  This pass closes that gap statically: it
   parses the emitted source back into the checked AST
   (Stencil.Kernel_ast -- a grammar covering exactly the shapes
   Codegen produces, nothing more), builds the expression the plan IR
   *requires* under the same specialization variant, and proves the
   two identical:

   - op-for-op IEEE-754 equivalence: the expression the postfix code
     builds, operation for operation and association for association,
     every hex-float literal round-tripping bit-exactly to the plan's
     coefficient (YS601/YS602/YS603);
   - address arithmetic: every load's base/table/shift matches the
     variant's per-slot last-dimension shift and unit-stride flag
     (YS604/YS605/YS606), and the shift implies an offset inside the
     YS5xx-certified halo of the grid it reads (YS607);
   - the surrounding unit: prelude bindings name the slots the body
     uses (YS611/YS600), the output loop matches the variant's
     out-pad/unit-stride mode (YS608), and the kernel registers under
     the ABI-versioned callback name of its own key (YS610).

   The validator is pure (no compiler, no execution); Engine.Native
   runs it on every resolution -- memo-cold, store-revived or freshly
   compiled.

   Codegen builds its AST with a postfix walk of its own, and so does
   this pass: sharing one walk would let a bug in it build the same
   wrong tree on both sides, which the comparison could then never
   see. *)

module D = Diagnostic
module Plan = Yasksite_stencil.Plan
module Expr = Yasksite_stencil.Expr
module Codegen = Yasksite_stencil.Codegen
module Ast = Yasksite_stencil.Kernel_ast
module Grid = Yasksite_grid.Grid

let dedup = Schedule_lint.dedup

exception Refused of string

open Ast


let load_e (v : Codegen.variant) s =
  if s < 0 || s >= Array.length v.Codegen.slot_shift then
    raise (Refused (Printf.sprintf "load of slot %d outside the access table" s));
  let shift = v.Codegen.slot_shift.(s) in
  if v.Codegen.slot_unit.(s) then Get (Unit_addr { data = s; row = s; shift })
  else Get (Tab_addr { data = s; row = s; tab = s; shift })

let lit_e c =
  if c <> c then
    raise (Refused "NaN coefficient (payload bits not emittable)")
  else Lit c

(* The validator's own walk of the postfix code, deliberately not
   Codegen's: sharing it would check the code against itself. *)
let expected_expr (plan : Plan.t) v =
  let stack = ref [] in
  let push e = stack := e :: !stack in
  let pop () =
    match !stack with
    | e :: tl ->
        stack := tl;
        e
    | [] -> raise (Refused "malformed postfix program (stack underflow)")
  in
  let binop op =
    let b = pop () in
    let a = pop () in
    push (Bin (op, a, b))
  in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Plan.Push c -> push (lit_e c)
      | Plan.Load s -> push (load_e v s)
      | Plan.Sym n -> raise (Refused ("unresolved coefficient " ^ n))
      | Plan.Neg -> push (Neg (pop ()))
      | Plan.Add -> binop Add
      | Plan.Sub -> binop Sub
      | Plan.Mul -> binop Mul
      | Plan.Div -> binop Div
      | Plan.Min ->
          let b = pop () in
          let a = pop () in
          push (Fmin (a, b))
      | Plan.Max ->
          let b = pop () in
          let a = pop () in
          push (Fmax (a, b))
      | Plan.Sel ->
          let b = pop () in
          let a = pop () in
          let c = pop () in
          push (Sel (c, a, b)))
    plan.Plan.code;
  match !stack with
  | [ e ] -> e
  | _ -> raise (Refused "malformed postfix program (leftover operands)")

let expected_binds (plan : Plan.t) (v : Codegen.variant) =
  let used = Array.make (max 1 (Plan.n_slots plan)) false in
  Array.iter
    (function
      | Plan.Load s when s >= 0 && s < Array.length used -> used.(s) <- true
      | _ -> ())
    plan.Plan.code;
  let binds = ref [] in
  Array.iteri
    (fun s u ->
      if u then begin
        binds := Bind_data { name = s; src = s } :: !binds;
        if s < Array.length v.Codegen.slot_unit && not v.Codegen.slot_unit.(s)
        then binds := Bind_tab { name = s; src = s } :: !binds;
        binds := Bind_row { name = s; src = s } :: !binds
      end)
    used;
  List.rev !binds

let expected_out (v : Codegen.variant) =
  if v.Codegen.out_unit then Out_unit { lp = v.Codegen.out_lp }
  else Out_tab { lp = v.Codegen.out_lp }

(* ------------------------------------------------------------------ *)
(* Comparison: classify every divergence under a stable YS6xx code     *)

let bits = Int64.bits_of_float

let lit_eq a b = bits a = bits b

let rec eq_expr a b =
  match (a, b) with
  | Lit x, Lit y -> lit_eq x y
  | Get x, Get y -> x = y
  | Neg x, Neg y -> eq_expr x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      o1 = o2 && eq_expr a1 a2 && eq_expr b1 b2
  | Fmin (a1, b1), Fmin (a2, b2) | Fmax (a1, b1), Fmax (a2, b2) ->
      eq_expr a1 a2 && eq_expr b1 b2
  | Sel (c1, a1, b1), Sel (c2, a2, b2) ->
      eq_expr c1 c2 && eq_expr a1 a2 && eq_expr b1 b2
  | _ -> false

(* the left [+.] spine — the associativity-sensitive view *)
let rec add_spine = function
  | Bin (Add, a, b) -> add_spine a @ [ b ]
  | e -> [ e ]

(* every [+.] flattened — the associativity-blind view, used to tell a
   reassociated chain (YS602) from a dropped/extra term (YS603) *)
let rec full_flat = function
  | Bin (Add, a, b) -> full_flat a @ full_flat b
  | e -> [ e ]

let short e =
  let s = expr_str e in
  if String.length s > 64 then String.sub s 0 61 ^ "..." else s

let err code fmt = Printf.ksprintf (fun m -> D.v D.Error ~code m) fmt

let diff_addr ~where exp act acc =
  match (exp, act) with
  | Unit_addr e, Unit_addr a ->
      if e.data <> a.data || e.row <> a.row then
        err "YS605"
          "%s: load reads slot d%d/r%d where the plan requires slot %d" where
          a.data a.row e.data
        :: acc
      else if e.shift <> a.shift then
        err "YS604"
          "%s: address shift %d does not match the variant's slot-%d shift %d"
          where a.shift e.data e.shift
        :: acc
      else acc
  | Tab_addr e, Tab_addr a ->
      if e.data <> a.data || e.row <> a.row || e.tab <> a.tab then
        err "YS605"
          "%s: load reads slot d%d/r%d/t%d where the plan requires slot %d"
          where a.data a.row a.tab e.data
        :: acc
      else if e.shift <> a.shift then
        err "YS604"
          "%s: address shift %d does not match the variant's slot-%d shift %d"
          where a.shift e.data e.shift
        :: acc
      else acc
  | Unit_addr e, Tab_addr _ ->
      err "YS606"
        "%s: slot %d uses table indirection where the variant marks the grid \
         unit-stride"
        where e.data
      :: acc
  | Tab_addr e, Unit_addr _ ->
      err "YS606"
        "%s: slot %d uses unit-stride addressing where the variant requires \
         the offset table"
        where e.data
      :: acc

let rec diff ~where exp act acc =
  if eq_expr exp act then acc
  else
    match (exp, act) with
    | Lit x, Lit y ->
        err "YS601"
          "%s: coefficient literal %h does not round-trip the plan's %h \
           (bits %Lx vs %Lx)"
          where y x (bits y) (bits x)
        :: acc
    | Get x, Get y -> diff_addr ~where x y acc
    | Neg x, Neg y -> diff ~where x y acc
    | (Bin (Add, _, _), _ | _, Bin (Add, _, _)) when spine_mismatch exp act ->
        let se = add_spine exp and sa = add_spine act in
        let fe = full_flat exp and fa = full_flat act in
        if
          List.length fe = List.length fa
          && List.for_all2 eq_expr fe fa
        then
          err "YS602"
            "%s: sum reassociated — the plan's left-associated %d-term chain \
             was emitted as a %d-element spine (IEEE-754 order differs)"
            where (List.length se) (List.length sa)
          :: acc
        else
          err "YS603"
            "%s: dropped or extra term — the plan sums %d terms, the kernel \
             sums %d"
            where (List.length se) (List.length sa)
          :: acc
    | Bin (Add, _, _), Bin (Add, _, _) ->
        let se = add_spine exp and sa = add_spine act in
        List.fold_left2 (fun acc e a -> diff ~where e a acc) acc se sa
    | Bin (o1, a1, b1), Bin (o2, a2, b2) when o1 = o2 ->
        diff ~where b1 b2 (diff ~where a1 a2 acc)
    | Fmin (a1, b1), Fmin (a2, b2) | Fmax (a1, b1), Fmax (a2, b2) ->
        diff ~where b1 b2 (diff ~where a1 a2 acc)
    | Sel (c1, a1, b1), Sel (c2, a2, b2) ->
        diff ~where b1 b2 (diff ~where a1 a2 (diff ~where c1 c2 acc))
    | _ ->
        err "YS602"
          "%s: expression structure diverges from the plan — expected %s, \
           found %s"
          where (short exp) (short act)
        :: acc

and spine_mismatch exp act =
  List.length (add_spine exp) <> List.length (add_spine act)

(* YS607: every load's implied last-dimension offset (shift − left pad)
   must stay inside the halo the YS5xx pass certified for that grid *)
let halo_bounds ~where (plan : Plan.t) ~inputs act acc =
  let r = plan.Plan.rank in
  let rec walk e acc =
    match e with
    | Lit _ -> acc
    | Neg x -> walk x acc
    | Bin (_, a, b) | Fmin (a, b) | Fmax (a, b) -> walk b (walk a acc)
    | Sel (c, a, b) -> walk b (walk a (walk c acc))
    | Get a ->
        let slot, shift =
          match a with
          | Unit_addr { data; shift; _ } -> (data, shift)
          | Tab_addr { data; shift; _ } -> (data, shift)
        in
        if slot < 0 || slot >= Array.length plan.Plan.accesses then
          err "YS605" "%s: load of slot %d outside the access table" where
            slot
          :: acc
        else
          let field = plan.Plan.accesses.(slot).Expr.field in
          if field < 0 || field >= Array.length inputs then acc
          else
            let g = inputs.(field) in
            let lp = (Grid.left_pad g).(r - 1) in
            let halo = (Grid.halo g).(r - 1) in
            let off = shift - lp in
            if abs off > halo then
              err "YS607"
                "%s: slot %d's shift %d implies last-dimension offset %d, \
                 outside the certified halo %d of field %d"
                where slot shift off halo field
              :: acc
            else acc
  in
  walk act acc

let diff_binds ~where exp act acc =
  if List.length exp <> List.length act then
    err "YS600" "%s: prelude has %d bindings where the plan requires %d"
      where (List.length act) (List.length exp)
    :: acc
  else
    List.fold_left2
      (fun acc e a ->
        if e = a then acc
        else
          let describe = function
            | Bind_data { name; src } -> Printf.sprintf "d%d <- slot_data %d" name src
            | Bind_tab { name; src } -> Printf.sprintf "t%d <- slot_tab %d" name src
            | Bind_row { name; src } -> Printf.sprintf "r%d <- row %d" name src
          in
          err "YS611" "%s: prelude binds %s where the plan requires %s" where
            (describe a) (describe e)
          :: acc)
      acc exp act

let diff_out ~where exp act acc =
  match (exp, act) with
  | Out_unit { lp = e }, Out_unit { lp = a } ->
      if e <> a then
        err "YS608" "%s: output left pad %d does not match the variant's %d"
          where a e
        :: acc
      else acc
  | Out_tab { lp = e }, Out_tab { lp = a } ->
      if e <> a then
        err "YS608" "%s: output left pad %d does not match the variant's %d"
          where a e
        :: acc
      else acc
  | Out_unit _, Out_tab _ ->
      err "YS608"
        "%s: output loop uses table indirection where the variant marks the \
         output unit-stride"
        where
      :: acc
  | Out_tab _, Out_unit _ ->
      err "YS608"
        "%s: output loop uses unit-stride addressing where the variant \
         requires the offset table"
        where
      :: acc

let check ~(plan : Plan.t) ~(variant : Codegen.variant) ~inputs src =
  if
    Array.length variant.Codegen.slot_shift <> Plan.n_slots plan
    || Array.length variant.Codegen.slot_unit <> Plan.n_slots plan
  then invalid_arg "Native_lint.check: variant arity does not match the plan";
  match parse src with
  | Error (msg, line) ->
      [ D.v ~loc:(D.Line line) D.Error ~code:"YS600"
          (Printf.sprintf
             "emitted kernel unit does not parse as a generated kernel: %s"
             msg) ]
  | Ok ast -> (
      match
        ( expected_expr plan variant,
          expected_binds plan variant,
          expected_out variant )
      with
      | exception Refused reason ->
          [ D.v D.Error ~code:"YS612"
              (Printf.sprintf
                 "plan cannot be symbolically evaluated for validation: %s"
                 reason) ]
      | exp_expr, exp_binds, exp_out ->
          let acc = [] in
          let acc = diff ~where:"kern_row body" exp_expr ast.row_expr acc in
          let acc =
            halo_bounds ~where:"kern_row body" plan ~inputs ast.row_expr acc
          in
          let acc = diff_binds ~where:"kern_row" exp_binds ast.row_binds acc in
          let acc = diff_out ~where:"kern_row" exp_out ast.row_out acc in
          let expected_name =
            Codegen.callback_name (Codegen.key ~plan variant)
          in
          let acc =
            if String.equal ast.reg_name expected_name then acc
            else
              err "YS610"
                "kernel registers under %S, expected the ABI-versioned name \
                 %S"
                ast.reg_name expected_name
              :: acc
          in
          dedup (List.rev acc))

let validate ~plan ~variant ~inputs src =
  let ds = check ~plan ~variant ~inputs src in
  if D.has_errors ds then Error ds else Ok ()
