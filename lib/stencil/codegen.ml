module Grid = Yasksite_grid.Grid

(* Source-level specialization of a kernel plan: emit a self-contained
   OCaml compilation unit whose inner loop is the plan's expression fully
   unrolled, with every coefficient, last-dimension shift and pad folded
   into literals — no per-point dispatch, no table indirection on
   unit-stride grids. The unit depends on nothing but the stdlib, so a
   host can [Dynlink] it without sharing any cmi; the row kernel is
   published through [Callback.register] under an ABI-versioned name.

   Bit-identity contract: the emitted expression replays the exact
   IEEE-754 operation sequence of the plan interpreter (Lower):

   - the postfix body is reconstructed into the nested expression whose
     evaluation replays the code verbatim, every operation in its own
     parentheses (the operands are pure loads and literals, so operand
     evaluation order cannot matter);
   - each temporary the plan saves becomes a [let] at the top of the
     output loop, bound to the expression the code had computed when it
     saved it, and each recall names that binding: the same value on the
     same operands, computed once per point as the interpreter does;
   - coefficients render as hex-float literals ([%h]), which
     round-trip every finite double exactly; [nan] coefficients are
     refused (an emitted [nan] literal could lose the payload).

   Addressing matches [Lower.bind]'s decomposition: a per-row base
   (passed in through [row]/[out_row], computed by the caller's
   driver) plus a last-dimension offset — the precomputed table on
   folded layouts, or [x + shift] directly when the grid is
   unit-stride ({!Grid.unit_stride} holds exactly when the table is
   the identity). *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type kern_row =
  farr array ->
  int array array ->
  farr ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  unit

let abi = 2

type variant = {
  slot_shift : int array;
  slot_unit : bool array;
  out_lp : int;
  out_unit : bool;
}

let variant_of ~(plan : Plan.t) ~inputs ~output =
  let r = plan.Plan.rank in
  let lp = Array.map (fun g -> (Grid.left_pad g).(r - 1)) inputs in
  let unit = Array.map Grid.unit_stride inputs in
  { slot_shift =
      Array.map
        (fun (a : Expr.access) -> a.Expr.offsets.(r - 1) + lp.(a.Expr.field))
        plan.Plan.accesses;
    slot_unit =
      Array.map (fun (a : Expr.access) -> unit.(a.Expr.field)) plan.Plan.accesses;
    out_lp = (Grid.left_pad output).(r - 1);
    out_unit = Grid.unit_stride output }

let key ~(plan : Plan.t) v =
  let b = Buffer.create 160 in
  Printf.bprintf b "yasksite-kern-abi%d|%s|sh:" abi (Plan.code_digest plan);
  Array.iter (fun s -> Printf.bprintf b "%d," s) v.slot_shift;
  Buffer.add_string b "|su:";
  Array.iter (fun u -> Buffer.add_char b (if u then '1' else '0')) v.slot_unit;
  Printf.bprintf b "|olp:%d|ou:%b" v.out_lp v.out_unit;
  Digest.to_hex (Digest.string (Buffer.contents b))

let callback_name k = "yasksite-kern-v" ^ string_of_int abi ^ ":" ^ k

let unit_basename k = "yk_" ^ k

(* ---- emission ---- *)

module Ast = Kernel_ast

exception Unsupported of string

(* The value of access-table slot [s] at the current point [x]. *)
let load v s =
  if s < 0 || s >= Array.length v.slot_shift then
    raise (Unsupported (Printf.sprintf "load of slot %d outside the access table" s));
  let shift = v.slot_shift.(s) in
  if v.slot_unit.(s) then Ast.Unit_addr { data = s; row = s; shift }
  else Ast.Tab_addr { data = s; row = s; tab = s; shift }

(* The postfix body rebuilt as the nested expression whose evaluation
   replays it verbatim, after the [let]s of its temporaries in the order
   the code saves them. *)
let row_expr v (code : Plan.instr array) =
  let stack = ref [] and lets = ref [] in
  let push e = stack := e :: !stack in
  let pop () =
    match !stack with
    | e :: tl ->
        stack := tl;
        e
    | [] -> raise (Unsupported "malformed postfix program (stack underflow)")
  in
  let binop f =
    let b = pop () in
    let a = pop () in
    push (f a b)
  in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Plan.Push c when Float.is_nan c ->
          raise (Unsupported "NaN coefficient (payload bits not emittable)")
      | Plan.Push c -> push (Ast.Lit c)
      | Plan.Load s -> push (Ast.Get (load v s))
      | Plan.Sym n -> raise (Unsupported ("unresolved coefficient " ^ n))
      | Plan.Neg -> push (Ast.Neg (pop ()))
      | Plan.Add -> binop (fun a b -> Ast.Bin (Ast.Add, a, b))
      | Plan.Sub -> binop (fun a b -> Ast.Bin (Ast.Sub, a, b))
      | Plan.Mul -> binop (fun a b -> Ast.Bin (Ast.Mul, a, b))
      | Plan.Div -> binop (fun a b -> Ast.Bin (Ast.Div, a, b))
      | Plan.Min -> binop (fun a b -> Ast.Fmin (a, b))
      | Plan.Max -> binop (fun a b -> Ast.Fmax (a, b))
      | Plan.Sel ->
          (* operands are pure (loads/literals), so materializing all
             three and blending is the interpreter's exact semantics *)
          let b = pop () in
          let a = pop () in
          let c = pop () in
          push (Ast.Sel (c, a, b))
      | Plan.Save t ->
          lets := (t, pop ()) :: !lets;
          push (Ast.Temp t)
      | Plan.Recall t -> push (Ast.Temp t))
    code;
  match !stack with
  | [ e ] -> (List.rev !lets, e)
  | _ -> raise (Unsupported "malformed postfix program (leftover operands)")

(* Per used slot, the hoisted bindings: data handle, offset table (only
   on non-unit-stride grids) and row base. *)
let row_binds (plan : Plan.t) v =
  let used = Array.make (Plan.n_slots plan) false in
  Array.iter
    (function
      | Plan.Load s when s >= 0 && s < Array.length used -> used.(s) <- true
      | _ -> ())
    plan.Plan.code;
  List.init (Array.length used) Fun.id
  |> List.concat_map (fun s ->
         let data = Ast.Bind_data { name = s; src = s }
         and row = Ast.Bind_row { name = s; src = s } in
         if not used.(s) then []
         else if v.slot_unit.(s) then [ data; row ]
         else [ data; Ast.Bind_tab { name = s; src = s }; row ])

let source ~(plan : Plan.t) v =
  if Array.length v.slot_shift <> Plan.n_slots plan
     || Array.length v.slot_unit <> Plan.n_slots plan
  then invalid_arg "Codegen.source: variant arity does not match the plan";
  match row_expr v plan.Plan.code with
  | exception Unsupported reason -> Error reason
  | row_lets, row_expr ->
      let k = key ~plan v in
      let header =
        Printf.sprintf
          "yasksite generated kernel (abi v%d) -- machine-written, do not \
           edit.\n\
          \   plan: %s\n\
          \   fingerprint: %s\n\
          \   key: %s"
          abi plan.Plan.name plan.Plan.fingerprint k
      in
      Ok
        (Ast.print ~header
           { Ast.row_binds = row_binds plan v;
             row_out =
               (if v.out_unit then Ast.Out_unit { lp = v.out_lp }
                else Ast.Out_tab { lp = v.out_lp });
             row_lets;
             row_expr;
             reg_name = callback_name k })
