module Grid = Yasksite_grid.Grid

(* Source-level specialization of a kernel plan: emit a self-contained
   OCaml compilation unit whose inner loop is the plan's FMA chain fully
   unrolled, with every coefficient, last-dimension shift and pad folded
   into literals — no per-point dispatch, no table indirection on
   unit-stride grids. The unit depends on nothing but the stdlib, so a
   host can [Dynlink] it without sharing any cmi; the row kernel is
   published through [Callback.register] under an ABI-versioned name.

   Bit-identity contract: every expression below replays the exact
   IEEE-754 operation sequence of the plan interpreter (Lower):

   - a term is [v], [(-. v)] or [(c *. v)] by the same [1.0]/[-1.0]
     coefficient tests the interpreter applies;
   - group sums and the group chain are emitted as left-associated
     [+.] chains, the order the interpreter folds them in;
   - a group's scale multiplies {e after} its sum, as the interpreter
     does;
   - a postfix [Program] body is reconstructed into the nested
     expression whose evaluation replays the program verbatim (the
     operands are pure loads and literals, so operand evaluation order
     cannot matter);
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
  Printf.bprintf b "yasksite-kern-abi%d|%s|sh:" abi plan.Plan.fingerprint;
  Array.iter (fun s -> Printf.bprintf b "%d," s) v.slot_shift;
  Buffer.add_string b "|su:";
  Array.iter (fun u -> Buffer.add_char b (if u then '1' else '0')) v.slot_unit;
  Printf.bprintf b "|olp:%d|ou:%b" v.out_lp v.out_unit;
  Digest.to_hex (Digest.string (Buffer.contents b))

let callback_name k = "yasksite-kern-v" ^ string_of_int abi ^ ":" ^ k

let unit_basename k = "yk_" ^ k

(* ---- emission ---- *)

exception Unsupported of string

let float_lit c =
  if c <> c then raise (Unsupported "NaN coefficient (payload bits not emittable)")
  else if c = infinity then "infinity"
  else if c = neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" c

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* The value of access-table slot [s] at the current point [x]. *)
let load v s =
  if s < 0 || s >= Array.length v.slot_shift then
    raise (Unsupported (Printf.sprintf "load of slot %d outside the access table" s));
  if v.slot_unit.(s) then
    Printf.sprintf "(Bigarray.Array1.unsafe_get d%d (r%d + x + %s))" s s
      (int_lit v.slot_shift.(s))
  else
    Printf.sprintf
      "(Bigarray.Array1.unsafe_get d%d (r%d + Array.unsafe_get t%d (x + %s)))"
      s s s
      (int_lit v.slot_shift.(s))

let term_expr v (t : Plan.term) =
  if t.Plan.slot < 0 then float_lit t.Plan.coeff
  else if t.Plan.coeff = 1.0 then load v t.Plan.slot
  else if t.Plan.coeff = -1.0 then Printf.sprintf "(-. %s)" (load v t.Plan.slot)
  else Printf.sprintf "(%s *. %s)" (float_lit t.Plan.coeff) (load v t.Plan.slot)

let group_expr v (g : Plan.group) =
  if Array.length g.Plan.terms = 0 then raise (Unsupported "empty group");
  let sum =
    "("
    ^ String.concat " +. "
        (Array.to_list (Array.map (term_expr v) g.Plan.terms))
    ^ ")"
  in
  match g.Plan.scale with
  | None -> sum
  | Some s -> Printf.sprintf "(%s *. %s)" (float_lit s) sum

let program_expr v (code : Plan.instr array) =
  let stack = ref [] in
  let push e = stack := e :: !stack in
  let pop () =
    match !stack with
    | e :: tl ->
        stack := tl;
        e
    | [] -> raise (Unsupported "malformed postfix program (stack underflow)")
  in
  let binop op =
    let b = pop () in
    let a = pop () in
    push (Printf.sprintf "(%s %s %s)" a op b)
  in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Plan.Push c -> push (float_lit c)
      | Plan.Load s -> push (load v s)
      | Plan.Sym n -> raise (Unsupported ("unresolved coefficient " ^ n))
      | Plan.Neg -> push (Printf.sprintf "(-. %s)" (pop ()))
      | Plan.Add -> binop "+."
      | Plan.Sub -> binop "-."
      | Plan.Mul -> binop "*."
      | Plan.Div -> binop "/."
      | Plan.Min ->
          let b = pop () in
          let a = pop () in
          push (Printf.sprintf "(Float.min %s %s)" a b)
      | Plan.Max ->
          let b = pop () in
          let a = pop () in
          push (Printf.sprintf "(Float.max %s %s)" a b)
      | Plan.Sel ->
          (* operands are pure (loads/literals), so materializing all
             three and blending is the interpreter's exact semantics *)
          let b = pop () in
          let a = pop () in
          let c = pop () in
          push (Printf.sprintf "(if %s > 0.0 then %s else %s)" c a b))
    code;
  match !stack with
  | [ e ] -> e
  | _ -> raise (Unsupported "malformed postfix program (leftover operands)")

let body_expr (plan : Plan.t) v =
  match plan.Plan.body with
  | Plan.Groups gs ->
      if Array.length gs = 0 then raise (Unsupported "empty plan body");
      (* parenthesized groups joined by +. parse left-associated — the
         interpreter's accumulation order *)
      String.concat " +. " (Array.to_list (Array.map (group_expr v) gs))
  | Plan.Program { code; _ } -> program_expr v code

let used_slots (plan : Plan.t) =
  let used = Array.make (max 1 (Plan.n_slots plan)) false in
  let mark s = if s >= 0 && s < Array.length used then used.(s) <- true in
  (match plan.Plan.body with
  | Plan.Groups gs ->
      Array.iter
        (fun (g : Plan.group) ->
          Array.iter (fun (t : Plan.term) -> mark t.Plan.slot) g.Plan.terms)
        gs
  | Plan.Program { code; _ } ->
      Array.iter
        (fun (i : Plan.instr) ->
          match i with Plan.Load s -> mark s | _ -> ())
        code);
  used

(* Per-slot hoisted bindings: data handle, row base, and (only on
   non-unit-stride grids) the offset table. *)
let prelude b used v =
  Array.iteri
    (fun s u ->
      if u then begin
        Printf.bprintf b "  let d%d = Array.unsafe_get slot_data %d in\n" s s;
        if not v.slot_unit.(s) then
          Printf.bprintf b "  let t%d = Array.unsafe_get slot_tab %d in\n" s s;
        Printf.bprintf b "  let r%d = Array.unsafe_get row %d in\n" s s
      end)
    used

let source ~(plan : Plan.t) v =
  if Array.length v.slot_shift <> Plan.n_slots plan
     || Array.length v.slot_unit <> Plan.n_slots plan
  then invalid_arg "Codegen.source: variant arity does not match the plan";
  match
    let k = key ~plan v in
    let used = used_slots plan in
    let expr = body_expr plan v in
    let b = Buffer.create 2048 in
    Printf.bprintf b
      "(* yasksite generated kernel (abi v%d) -- machine-written, do not \
       edit.\n\
      \   plan: %s\n\
      \   fingerprint: %s\n\
      \   key: %s *)\n\n"
      abi plan.Plan.name plan.Plan.fingerprint k;
    Buffer.add_string b
      "type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t\n\n";
    Buffer.add_string b
      "let kern_row (slot_data : farr array) (slot_tab : int array array)\n\
      \    (out : farr) (out_tab : int array) (row : int array) (out_row : \
       int)\n\
      \    (xb : int) (xe : int) : unit =\n";
    Buffer.add_string b
      "  ignore slot_data; ignore slot_tab; ignore out_tab; ignore row;\n";
    prelude b used v;
    if v.out_unit then begin
      Printf.bprintf b "  let off = ref (out_row + %s + xb) in\n"
        (int_lit v.out_lp);
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      Printf.bprintf b "    Bigarray.Array1.unsafe_set out !off (%s);\n" expr;
      Buffer.add_string b "    incr off\n  done\n\n"
    end
    else begin
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      Printf.bprintf b
        "    Bigarray.Array1.unsafe_set out (out_row + Array.unsafe_get \
         out_tab (x + %s)) (%s)\n"
        (int_lit v.out_lp) expr;
      Buffer.add_string b "  done\n\n"
    end;
    Printf.bprintf b "let () = Callback.register %S kern_row\n"
      (callback_name k);
    Buffer.contents b
  with
  | src -> Ok src
  | exception Unsupported reason -> Error reason

let supported plan =
  match
    body_expr plan
      { slot_shift = Array.make (Plan.n_slots plan) 0;
        slot_unit = Array.make (Plan.n_slots plan) true;
        out_lp = 0;
        out_unit = true }
  with
  | (_ : string) -> Ok ()
  | exception Unsupported reason -> Error reason
