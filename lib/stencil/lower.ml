module Grid = Yasksite_grid.Grid

(* Lowering: Spec.t -> Plan.t, and binding a plan to concrete grids.

   Every rewrite used below is exact in IEEE-754 double arithmetic for
   the finite data the engine operates on, so plan execution is
   bit-identical to walking the expression tree point by point:

   - constant subtrees are folded with the very operation the tree would
     have applied at run time;
   - [a -. b] is emitted as the chain element [+ (negated b)] — IEEE
     defines subtraction as addition of the negated operand;
   - negation distributes exactly over addition and over multiplication
     by a constant (rounding is sign-symmetric);
   - [1.0 *. v = v], [-1.0 *. v = -.v] and [c *. v = v *. c] hold
     exactly.

   Only left-spine additive chains are linearised (the shape [Dsl.sum]
   and the random generator produce); right-nested sums keep their
   grouping by falling back to the postfix [Program] body, which
   replays the tree's own operation order verbatim. *)

(* ---- constant folding (exact: same ops the tree would execute) ---- *)

let rec cfold (e : Expr.t) : Expr.t =
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

(* ---- linear-combination (Groups) detection ---- *)

exception Not_linear

(* The left-spine additive chain of [e], in evaluation order: the right
   operand of each Add/Sub is NOT recursed into, so a right-nested sum
   stays a single (non-linear) element and forces the Program fallback —
   flattening it would change the rounding order. *)
let spine e =
  let rec go acc (e : Expr.t) =
    match e with
    | Add (a, b) -> go ((1, b) :: acc) a
    | Sub (a, b) -> go ((-1, b) :: acc) a
    | _ -> (1, e) :: acc
  in
  go [] e

let rec term_of slot_of sign (e : Expr.t) : Plan.term =
  match e with
  | Const c -> { Plan.coeff = (if sign < 0 then -.c else c); slot = -1 }
  | Ref a -> { Plan.coeff = (if sign < 0 then -1.0 else 1.0); slot = slot_of a }
  | Mul (Const c, Ref a) | Mul (Ref a, Const c) ->
      { Plan.coeff = (if sign < 0 then -.c else c); slot = slot_of a }
  | Neg t -> term_of slot_of (-sign) t
  | _ -> raise Not_linear

let terms_of slot_of sign e =
  List.map (fun (s, t) -> term_of slot_of (sign * s) t) (spine e)

let rec group_of slot_of sign (e : Expr.t) : Plan.group =
  match e with
  | Neg inner -> group_of slot_of (-sign) inner
  | Mul (Const c, inner) | Mul (inner, Const c) ->
      { Plan.scale = Some (if sign < 0 then -.c else c);
        terms = Array.of_list (terms_of slot_of 1 inner) }
  | _ -> { Plan.scale = None; terms = Array.of_list (terms_of slot_of sign e) }

let groups_of slot_of e =
  match List.map (fun (s, g) -> group_of slot_of s g) (spine e) with
  | gs -> Some (Array.of_list gs)
  | exception Not_linear -> None

(* ---- postfix fallback ---- *)

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
  let code = Array.of_list (List.rev !buf) in
  let d = ref 0 and depth = ref 0 in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Push _ | Load _ | Sym _ ->
          incr d;
          if !d > !depth then depth := !d
      | Neg -> ()
      | Add | Sub | Mul | Div | Min | Max -> decr d
      | Sel -> d := !d - 2)
    code;
  Plan.Program { code; depth = !depth }

let make_slot_of accesses =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) accesses;
  fun a -> Hashtbl.find tbl a

let lower (spec : Spec.t) : Plan.t =
  let info = Analysis.of_spec spec in
  let accesses = Array.of_list info.Analysis.accesses in
  let slot_of = make_slot_of accesses in
  let e = cfold spec.Spec.expr in
  let body =
    match groups_of slot_of e with
    | Some gs -> Plan.Groups gs
    | None -> program slot_of e
  in
  Plan.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields ~accesses ~body

let fingerprint spec = (lower spec).Plan.fingerprint

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
  match plan.Plan.body with
  | Plan.Program { code; _ } ->
      Array.iter
        (function
          | Plan.Sym n -> invalid_arg ("Lower: unresolved coefficient " ^ n)
          | _ -> ())
        code
  | Plan.Groups _ -> ()

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type bbody =
  | BGroups of {
      goff : int array;  (* group g owns terms [goff.(g), goff.(g+1)) *)
      scaled : bool array;
      gscale : float array;
      t_coeff : float array;
      t_slot : int array;
    }
  | BProgram of { code : Plan.instr array; depth : int }

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
  bbody : bbody;
}

let flatten gs =
  let ng = Array.length gs in
  let goff = Array.make (ng + 1) 0 in
  Array.iteri
    (fun i (g : Plan.group) -> goff.(i + 1) <- goff.(i) + Array.length g.terms)
    gs;
  let nt = goff.(ng) in
  let t_coeff = Array.make (max 1 nt) 0.0
  and t_slot = Array.make (max 1 nt) 0 in
  Array.iteri
    (fun i (g : Plan.group) ->
      Array.iteri
        (fun j (tm : Plan.term) ->
          t_coeff.(goff.(i) + j) <- tm.coeff;
          t_slot.(goff.(i) + j) <- tm.slot)
        g.terms)
    gs;
  let scaled = Array.map (fun (g : Plan.group) -> g.scale <> None) gs in
  let gscale =
    Array.map
      (fun (g : Plan.group) -> match g.scale with Some s -> s | None -> 0.0)
      gs
  in
  BGroups { goff; scaled; gscale; t_coeff; t_slot }

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
    out_base = Grid.base_address output;
    bbody =
      (match plan.Plan.body with
      | Plan.Groups gs -> flatten gs
      | Plan.Program { code; depth } -> BProgram { code; depth }) }

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

(* Per-region mutable scratch. A bound is immutable and may be shared by
   concurrent pool slices; each slice drives its own driver. *)
type driver = {
  b : bound;
  row : int array;  (* per-slot row base, set by {!set_row} *)
  mutable out_row : int;
  oc : int array;  (* rank-1 coordinate scratch *)
  stack : float array;
}

let driver b =
  let depth =
    match b.bbody with BProgram { depth; _ } -> depth | BGroups _ -> 0
  in
  { b;
    row = Array.make (max 1 (Array.length b.slot_grid)) 0;
    out_row = 0;
    oc = Array.make (max 0 (b.plan.Plan.rank - 1)) 0;
    stack = Array.make (max 1 depth) 0.0 }

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

(* No bounds checks below: for regions inside the iteration space every
   table index [x + shift] lies in [0, padded last extent) because the
   left pad covers the halo — callers gate illegal regions via [check]
   or trap them via the sanitizer before evaluation. *)

let term_val b row t_coeff t_slot t x =
  let s = Array.unsafe_get t_slot t in
  if s < 0 then Array.unsafe_get t_coeff t
  else
    let v =
      Bigarray.Array1.unsafe_get
        (Array.unsafe_get b.slot_data s)
        (Array.unsafe_get row s
        + Array.unsafe_get
            (Array.unsafe_get b.slot_tab s)
            (x + Array.unsafe_get b.slot_shift s))
    in
    let c = Array.unsafe_get t_coeff t in
    if c = 1.0 then v else if c = -1.0 then -.v else c *. v
  [@@inline]

let point_groups b row goff scaled gscale t_coeff t_slot x =
  let group g =
    let t0 = Array.unsafe_get goff g
    and t1 = Array.unsafe_get goff (g + 1) in
    let s = ref (term_val b row t_coeff t_slot t0 x) in
    for t = t0 + 1 to t1 - 1 do
      s := !s +. term_val b row t_coeff t_slot t x
    done;
    if Array.unsafe_get scaled g then Array.unsafe_get gscale g *. !s
    else !s
  in
  let acc = ref (group 0) in
  for g = 1 to Array.length scaled - 1 do
    acc := !acc +. group g
  done;
  !acc

(* Host timings of this loop are sensitive to where the linker places
   it: at offset 48 mod 64 the perfbench [program] workload measured
   25–38% slower than at offset 0, with byte-identical code. Builds
   padded to each offset read [mlups_plan] 1.8–2.1 MLUP/s at 0 mod 64,
   2.0–2.4 at 16, 1.6–2.0 at 32 and 1.2–1.5 at 48. When a change
   elsewhere moves it, check the placement
   ([nm _build/default/perfbench/main.exe]) before blaming the change. *)
let point_program b row stack code x =
  let sp = ref 0 in
  for i = 0 to Array.length code - 1 do
    match Array.unsafe_get code i with
    | Plan.Push c ->
        Array.unsafe_set stack !sp c;
        incr sp
    | Plan.Load s ->
        Array.unsafe_set stack !sp
          (Bigarray.Array1.unsafe_get
             (Array.unsafe_get b.slot_data s)
             (Array.unsafe_get row s
             + Array.unsafe_get
                 (Array.unsafe_get b.slot_tab s)
                 (x + Array.unsafe_get b.slot_shift s)));
        incr sp
    | Plan.Sym _ -> assert false (* refused at bind time *)
    | Plan.Neg ->
        Array.unsafe_set stack (!sp - 1)
          (-.Array.unsafe_get stack (!sp - 1))
    | Plan.Add ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Array.unsafe_get stack (!sp - 1) +. Array.unsafe_get stack !sp)
    | Plan.Sub ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Array.unsafe_get stack (!sp - 1) -. Array.unsafe_get stack !sp)
    | Plan.Mul ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Array.unsafe_get stack (!sp - 1) *. Array.unsafe_get stack !sp)
    | Plan.Div ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Array.unsafe_get stack (!sp - 1) /. Array.unsafe_get stack !sp)
    | Plan.Min ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Float.min
             (Array.unsafe_get stack (!sp - 1))
             (Array.unsafe_get stack !sp))
    | Plan.Max ->
        decr sp;
        Array.unsafe_set stack (!sp - 1)
          (Float.max
             (Array.unsafe_get stack (!sp - 1))
             (Array.unsafe_get stack !sp))
    | Plan.Sel ->
        sp := !sp - 2;
        Array.unsafe_set stack (!sp - 1)
          (if Array.unsafe_get stack (!sp - 1) > 0.0 then
             Array.unsafe_get stack !sp
           else Array.unsafe_get stack (!sp + 1))
  done;
  Array.unsafe_get stack 0

let eval drv x =
  let b = drv.b in
  match b.bbody with
  | BGroups { goff; scaled; gscale; t_coeff; t_slot } ->
      point_groups b drv.row goff scaled gscale t_coeff t_slot x
  | BProgram { code; _ } -> point_program b drv.row drv.stack code x

let out_offset drv x =
  drv.out_row + Array.unsafe_get drv.b.out_tab (x + drv.b.out_lp)

let out_addr drv x = drv.b.out_base + (8 * out_offset drv x)

let read_addr drv s x =
  let b = drv.b in
  b.slot_base.(s)
  + 8
    * (drv.row.(s)
      + Array.unsafe_get (Array.unsafe_get b.slot_tab s)
          (x + Array.unsafe_get b.slot_shift s))

let store_row drv xb xe =
  let b = drv.b in
  let row = drv.row in
  match b.bbody with
  | BGroups { goff; scaled; gscale; t_coeff; t_slot } ->
      if b.out_unit then begin
        let off = ref (drv.out_row + b.out_lp + xb) in
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data !off
            (point_groups b row goff scaled gscale t_coeff t_slot x);
          incr off
        done
      end
      else
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data
            (drv.out_row + Array.unsafe_get b.out_tab (x + b.out_lp))
            (point_groups b row goff scaled gscale t_coeff t_slot x)
        done
  | BProgram { code; _ } ->
      let stack = drv.stack in
      if b.out_unit then begin
        let off = ref (drv.out_row + b.out_lp + xb) in
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data !off
            (point_program b row stack code x);
          incr off
        done
      end
      else
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data
            (drv.out_row + Array.unsafe_get b.out_tab (x + b.out_lp))
            (point_program b row stack code x)
        done
