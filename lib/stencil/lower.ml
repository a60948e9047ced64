module Grid = Yasksite_grid.Grid

(* Lowering: Spec.t -> Plan.t, and binding a plan to concrete grids.

   [lower] folds constant subtrees ({!Expr.cfold}), then flattens the
   folded tree to postfix code in its own operation order, computing
   each operator subtree that occurs more than once only the first time
   and keeping it in a temporary for the others. Folding is exact in
   IEEE-754 double arithmetic, and a shared subtree's value is the value
   each of its occurrences would compute, so plan execution is
   bit-identical to walking the expression tree point by point. *)

(* ---- postfix code ---- *)

(* Postfix code and the stack depth it reaches. *)
let postfix instrs =
  let code = Array.of_list instrs in
  let d = ref 0 and depth = ref 0 in
  Array.iter
    (fun i ->
      d := !d - Plan.pops i + 1;
      depth := max !depth !d)
    code;
  (code, !depth)

(* An expression node's instruction, without its operands. *)
let instr slot_of (e : Expr.t) : Plan.instr =
  match e with
  | Const c -> Plan.Push c
  | Coeff n -> Plan.Sym n
  | Ref a -> Plan.Load (slot_of a)
  | Neg _ -> Plan.Neg
  | Add _ -> Plan.Add
  | Sub _ -> Plan.Sub
  | Mul _ -> Plan.Mul
  | Div _ -> Plan.Div
  | Min _ -> Plan.Min
  | Max _ -> Plan.Max
  | Select _ -> Plan.Sel

(* The tree's own postfix code, every occurrence computed: the code the
   fingerprint renders. Every ECM cache lookup fingerprints a kernel, so
   the walk allocates nothing but the code. *)
let tree_code slot_of e =
  let buf = ref [] in
  let rec go (e : Expr.t) =
    (match e with
    | Const _ | Coeff _ | Ref _ -> ()
    | Neg a -> go a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b)
    | Max (a, b) ->
        go a;
        go b
    | Select (c, a, b) ->
        go c;
        go a;
        go b);
    buf := instr slot_of e :: !buf
  in
  go e;
  postfix (List.rev !buf)

(* ---- common subexpressions ---- *)

(* The tree as a DAG: equal subtrees are one node. Two subtrees are
   equal when their instructions and operand nodes are, with constants
   compared bit for bit as [Expr.equal] does, so [0.0] and [-0.0] stay
   apart and a NaN constant meets itself. *)
type dag = { id : int; instr : Plan.instr; kids : dag list }

(* What makes two nodes one: a constant's bits, a slot, a coefficient's
   name, or an operator and its operand nodes. *)
type key =
  | Const_bits of int64
  | Slot of int
  | Name of string
  | Op of Plan.instr * int list

let intern slot_of e =
  let tbl = Hashtbl.create 64 in
  let rec go (e : Expr.t) =
    let kids =
      List.map go
        (match e with
        | Const _ | Coeff _ | Ref _ -> []
        | Neg a -> [ a ]
        | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b)
        | Max (a, b) ->
            [ a; b ]
        | Select (c, a, b) -> [ c; a; b ])
    in
    let instr = instr slot_of e in
    let key =
      match instr with
      | Plan.Push c -> Const_bits (Int64.bits_of_float c)
      | Plan.Load s -> Slot s
      | Plan.Sym n -> Name n
      | op -> Op (op, List.map (fun k -> k.id) kids)
    in
    match Hashtbl.find_opt tbl key with
    | Some d -> d
    | None ->
        let d = { id = Hashtbl.length tbl; instr; kids } in
        Hashtbl.add tbl key d;
        d
  in
  let root = go e in
  (root, Hashtbl.length tbl)

(* The DAG's postfix code: an operator node reached a second time is
   recalled from the temporary its first evaluation saved. Leaves are
   pushed again, which costs what a recall does. *)
let dag_code (root, n) =
  let uses = Array.make n 0 in
  let rec count d =
    uses.(d.id) <- uses.(d.id) + 1;
    if uses.(d.id) = 1 then List.iter count d.kids
  in
  count root;
  let temp = Array.make n (-1) and temps = ref 0 in
  let buf = ref [] in
  let push i = buf := i :: !buf in
  let rec go d =
    if temp.(d.id) >= 0 then push (Plan.Recall temp.(d.id))
    else begin
      List.iter go d.kids;
      push d.instr;
      if uses.(d.id) > 1 && d.kids <> [] then begin
        temp.(d.id) <- !temps;
        push (Plan.Save !temps);
        incr temps
      end
    end
  in
  go root;
  let code, depth = postfix (List.rev !buf) in
  (code, depth, !temps)

let make_slot_of accesses =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) accesses;
  fun a -> Hashtbl.find tbl a

let lower (spec : Spec.t) : Plan.t =
  let info = Analysis.of_spec spec in
  let accesses = Array.of_list info.Analysis.accesses in
  let slot_of = make_slot_of accesses in
  let code, depth, temps =
    dag_code (intern slot_of (Expr.cfold spec.Spec.expr))
  in
  Plan.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields ~accesses ~code ~depth ~temps

(* The tree's fingerprint, without building the DAG: the same bytes as
   [(lower spec).fingerprint], since a recall renders as what its save
   captured. *)
let fingerprint (spec : Spec.t) =
  let info = Analysis.of_spec spec in
  let accesses = Array.of_list info.Analysis.accesses in
  let code, depth =
    tree_code (make_slot_of accesses) (Expr.cfold spec.Spec.expr)
  in
  (Plan.v ~name:spec.Spec.name ~rank:spec.Spec.rank
     ~n_fields:spec.Spec.n_fields ~accesses ~code ~depth ~temps:0)
    .Plan.fingerprint

(* ---- binding to concrete grids ---- *)

let check (plan : Plan.t) ~inputs ~output =
  if Array.length inputs <> plan.Plan.n_fields then
    invalid_arg "Lower: input count does not match n_fields";
  Array.iter
    (fun g ->
      if Grid.rank g <> plan.Plan.rank then
        invalid_arg "Lower: input grid rank mismatch")
    inputs;
  if Grid.rank output <> plan.Plan.rank then
    invalid_arg "Lower: output grid rank mismatch";
  Array.iter
    (fun (a : Expr.access) ->
      let h = Grid.halo inputs.(a.field) in
      Array.iteri
        (fun i d ->
          if abs d > h.(i) then
            invalid_arg
              (Printf.sprintf
                 "Lower: field %d halo %d too small for offset %d" a.field
                 h.(i) d))
        a.offsets)
    plan.Plan.accesses;
  (* The driver runs the code on an unchecked stack of [depth] entries
     and [temps] temporary rows, and stores the one value left, so code
     that underflows, outgrows [depth], leaves other than one value,
     loads outside the access table, names a temporary outside [temps],
     saves one twice or recalls one before its save is refused here
     rather than run. *)
  let temps = plan.Plan.temps in
  let saved = Array.make (max 0 temps) false in
  let temp t =
    if t < 0 || t >= temps then
      invalid_arg
        (Printf.sprintf "Lower: temporary %d outside the declared %d" t temps)
  in
  let sp =
    Array.fold_left
      (fun sp (i : Plan.instr) ->
        (match i with
        | Plan.Sym n -> invalid_arg ("Lower: unresolved coefficient " ^ n)
        | Plan.Load s when s < 0 || s >= Plan.n_slots plan ->
            invalid_arg
              (Printf.sprintf "Lower: load of slot %d outside the access table"
                 s)
        | Plan.Save t ->
            temp t;
            if saved.(t) then
              invalid_arg (Printf.sprintf "Lower: temporary %d saved twice" t);
            saved.(t) <- true
        | Plan.Recall t ->
            temp t;
            if not saved.(t) then
              invalid_arg
                (Printf.sprintf "Lower: recall of temporary %d before its save"
                   t)
        | _ -> ());
        let pops = Plan.pops i in
        if sp < pops then invalid_arg "Lower: code pops an empty stack";
        let sp = sp - pops + 1 in
        if sp > plan.Plan.depth then
          invalid_arg
            (Printf.sprintf "Lower: code outgrows its declared depth %d"
               plan.Plan.depth);
        sp)
      0 plan.Plan.code
  in
  if sp <> 1 then
    invalid_arg (Printf.sprintf "Lower: code leaves %d values, not one" sp)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type bound = {
  plan : Plan.t;
  output : Grid.t;
  slot_grid : Grid.t array;
  slot_data : farr array;
  slot_tab : int array array;  (* shared per input field *)
  slot_shift : int array;  (* last offset + the field grid's last left pad *)
  slot_outer : int array array;  (* the rank-1 leading offsets *)
  slot_base : int array;  (* byte base address per slot's grid *)
  out_data : farr;
  out_tab : int array;
  out_lp : int;
  out_unit : bool;
  out_base : int;
}

let bind (plan : Plan.t) ~inputs ~output =
  check plan ~inputs ~output;
  let r = plan.Plan.rank in
  let field_tab = Array.map Grid.last_dim_offsets inputs in
  let field_lp = Array.map (fun g -> (Grid.left_pad g).(r - 1)) inputs in
  let acc = plan.Plan.accesses in
  let slot_grid = Array.map (fun (a : Expr.access) -> inputs.(a.field)) acc in
  { plan;
    output;
    slot_grid;
    slot_data = Array.map Grid.raw slot_grid;
    slot_tab = Array.map (fun (a : Expr.access) -> field_tab.(a.field)) acc;
    slot_shift =
      Array.map
        (fun (a : Expr.access) -> a.offsets.(r - 1) + field_lp.(a.field))
        acc;
    slot_outer =
      Array.map (fun (a : Expr.access) -> Array.sub a.offsets 0 (r - 1)) acc;
    slot_base = Array.map Grid.base_address slot_grid;
    out_data = Grid.raw output;
    out_tab = Grid.last_dim_offsets output;
    out_lp = (Grid.left_pad output).(r - 1);
    out_unit = Grid.unit_stride output;
    out_base = Grid.base_address output }

let plan_of b = b.plan

(* Raw addressing handles for generated kernels (Codegen): the bound's
   storage and tables, without the interpreter in between. *)
type raw = {
  r_slot_data : farr array;
  r_slot_tab : int array array;
  r_out_data : farr;
  r_out_tab : int array;
}

let raw_of b =
  { r_slot_data = b.slot_data;
    r_slot_tab = b.slot_tab;
    r_out_data = b.out_data;
    r_out_tab = b.out_tab }

(* A row is evaluated [chunk] points at a time. *)
let chunk = 64

(* Per-region mutable scratch. A bound is immutable and may be shared by
   concurrent pool slices; each slice drives its own driver. *)
type driver = {
  b : bound;
  row : int array;  (* per-slot row base, set by {!set_row} *)
  mutable out_row : int;
  oc : int array;  (* rank-1 coordinate scratch *)
  lanes : float array;
      (* the row-wide stack, entries of [chunk] lanes, then one row of
         [chunk] lanes per temporary *)
}

let driver b =
  let p = b.plan in
  { b;
    row = Array.make (max 1 (Array.length b.slot_grid)) 0;
    out_row = 0;
    oc = Array.make (max 0 (p.Plan.rank - 1)) 0;
    lanes = Array.make ((max 1 p.Plan.depth + p.Plan.temps) * chunk) 0.0 }

let set_row drv outer =
  let b = drv.b in
  let r1 = Array.length drv.oc in
  for s = 0 to Array.length b.slot_grid - 1 do
    let off = b.slot_outer.(s) in
    for i = 0 to r1 - 1 do
      drv.oc.(i) <- outer.(i) + off.(i)
    done;
    drv.row.(s) <- Grid.row_base b.slot_grid.(s) drv.oc
  done;
  drv.out_row <- Grid.row_base b.output outer

let driver_row drv = drv.row

let driver_out_row drv = drv.out_row

(* ---- row evaluation ----

   Each postfix instruction of the body runs over all points of a chunk
   before the next one starts, on a stack whose entries are [chunk]
   lanes wide. Every point still gets the same operations on the same
   values in the same order as the expression tree, so the values are
   bit-identical; the dispatch is paid once per chunk instead of once
   per point.

   No bounds checks below: for regions inside the iteration space every
   table index [x + shift] lies in [0, padded last extent) because the
   left pad covers the halo — callers gate illegal regions via [check]
   or trap them via the sanitizer before evaluation. *)

(* Lanes [o, o + n) <- slot [s] at points [x0, x0 + n) of the row. *)
let load b row lanes s x0 n o =
  let d = Array.unsafe_get b.slot_data s in
  let at = Array.unsafe_get row s in
  let tab = Array.unsafe_get b.slot_tab s in
  let x = x0 + Array.unsafe_get b.slot_shift s - o in
  for j = o to o + n - 1 do
    Array.unsafe_set lanes j
      (Bigarray.Array1.unsafe_get d (at + Array.unsafe_get tab (x + j)))
  done
  [@@inline]

(* The interpreter's hot loop. Builds padded so that it sat at 0, 16,
   32 and 48 mod 64 read perfbench [program] [mlups_plan] medians of
   5.5, 6.4, 6.4 and 5.3 MLUP/s (three 12 s runs each, 4.2–7.3 over all
   twelve, 2-vCPU KVM host): placement moves it less than the host's
   run-to-run noise. Still, when a change elsewhere moves host timings,
   check the placement ([nm _build/default/perfbench/main.exe]) before
   blaming the change. *)
let program_lanes b row lanes code tb x0 n =
  let sp = ref 0 in  (* first lane of the next free stack entry *)
  for i = 0 to Array.length code - 1 do
    (* [a] is the entry below the top: a binary operator's left operand
       and the entry its result replaces *)
    let a = !sp - (2 * chunk) in
    match Array.unsafe_get code i with
    | Plan.Push c ->
        Array.fill lanes !sp n c;
        sp := !sp + chunk
    | Plan.Load s ->
        load b row lanes s x0 n !sp;
        sp := !sp + chunk
    | Plan.Sym _ -> assert false (* refused at bind time *)
    | Plan.Neg ->
        for j = a + chunk to a + chunk + n - 1 do
          Array.unsafe_set lanes j (-.Array.unsafe_get lanes j)
        done
    | Plan.Add ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Array.unsafe_get lanes j +. Array.unsafe_get lanes (j + chunk))
        done;
        sp := a + chunk
    | Plan.Sub ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Array.unsafe_get lanes j -. Array.unsafe_get lanes (j + chunk))
        done;
        sp := a + chunk
    | Plan.Mul ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Array.unsafe_get lanes j *. Array.unsafe_get lanes (j + chunk))
        done;
        sp := a + chunk
    | Plan.Div ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Array.unsafe_get lanes j /. Array.unsafe_get lanes (j + chunk))
        done;
        sp := a + chunk
    | Plan.Min ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Float.min (Array.unsafe_get lanes j)
               (Array.unsafe_get lanes (j + chunk)))
        done;
        sp := a + chunk
    | Plan.Max ->
        for j = a to a + n - 1 do
          Array.unsafe_set lanes j
            (Float.max (Array.unsafe_get lanes j)
               (Array.unsafe_get lanes (j + chunk)))
        done;
        sp := a + chunk
    | Plan.Sel ->
        (* pops b, a, c; pushes [if c > 0.0 then a else b] *)
        let c = a - chunk in
        for j = c to c + n - 1 do
          Array.unsafe_set lanes j
            (if Array.unsafe_get lanes j > 0.0 then
               Array.unsafe_get lanes (j + chunk)
             else Array.unsafe_get lanes (j + (2 * chunk)))
        done;
        sp := a
    | Plan.Save t ->
        (* the top entry is [a + chunk]. Copied inline: with
           [Array.blit] here and in [Recall], a heat-3d-7pt sweep (no
           temporaries) ran 3-5% slower on a 2-vCPU KVM host *)
        let d = tb + (t * chunk) - a - chunk in
        for j = a + chunk to a + chunk + n - 1 do
          Array.unsafe_set lanes (j + d) (Array.unsafe_get lanes j)
        done
    | Plan.Recall t ->
        let s = tb + (t * chunk) - a - (2 * chunk) in
        for j = a + (2 * chunk) to a + (2 * chunk) + n - 1 do
          Array.unsafe_set lanes j (Array.unsafe_get lanes (j + s))
        done;
        sp := !sp + chunk
  done

(* Lanes [0, n) <- the values at points [x0, x0 + n) of the row. *)
let eval_lanes drv x0 n =
  let p = drv.b.plan in
  program_lanes drv.b drv.row drv.lanes p.Plan.code
    (max 1 p.Plan.depth * chunk)
    x0 n

let store_row drv xb xe =
  let b = drv.b and lanes = drv.lanes in
  let x0 = ref xb in
  while !x0 < xe do
    let n = min chunk (xe - !x0) in
    eval_lanes drv !x0 n;
    (if b.out_unit then begin
       let off = drv.out_row + b.out_lp + !x0 in
       for j = 0 to n - 1 do
         Bigarray.Array1.unsafe_set b.out_data (off + j)
           (Array.unsafe_get lanes j)
       done
     end
     else
       let x = !x0 + b.out_lp in
       for j = 0 to n - 1 do
         Bigarray.Array1.unsafe_set b.out_data
           (drv.out_row + Array.unsafe_get b.out_tab (x + j))
           (Array.unsafe_get lanes j)
       done);
    x0 := !x0 + n
  done

let eval_row drv xb xe dst pos =
  let x0 = ref xb in
  while !x0 < xe do
    let n = min chunk (xe - !x0) in
    eval_lanes drv !x0 n;
    Array.blit drv.lanes 0 dst (pos + !x0 - xb) n;
    x0 := !x0 + n
  done

let out_addr drv x =
  drv.b.out_base
  + (8 * (drv.out_row + Array.unsafe_get drv.b.out_tab (x + drv.b.out_lp)))

let read_addr drv s x =
  let b = drv.b in
  b.slot_base.(s)
  + 8
    * (drv.row.(s)
      + Array.unsafe_get (Array.unsafe_get b.slot_tab s)
          (x + Array.unsafe_get b.slot_shift s))

(* Defined after the hot functions above so that it does not shift their
   code placement (see [program_lanes]). *)
let bound_to b ~inputs ~output =
  b.output == output
  && Array.length inputs = b.plan.Plan.n_fields
  && Array.for_all2
       (fun (a : Expr.access) g -> g == inputs.(a.field))
       b.plan.Plan.accesses b.slot_grid
