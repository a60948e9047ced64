(* Plan-IR dataflow verifier: the YS5xx rule family.

   The flat kernel plan is the last IR before execution, and the engine
   runs it with *unchecked* table indexing and an *unchecked* stack
   (Lower's drivers use unsafe accesses throughout) — so every safety
   property the driver assumes is proved here, by abstract
   interpretation over the plan body, before a certificate lets the
   engine skip its per-point shadow checks:

   - every slot the body references exists in the access table, and
     every access-table entry names a declared field at the plan's rank
     (YS500);
   - bound to concrete grids, every table index [x + slot_shift] stays
     inside the allocation across the full iteration space — which
     reduces to per-dimension |offset| <= halo, because the left pad
     covers exactly the halo (YS501);
   - postfix programs are stack-safe: no pop of an empty stack, the
     declared [depth] (which sizes the driver's unchecked scratch
     stack) is exactly the measured maximum (YS502), and exactly one
     value remains as the result (YS505);
   - dead loads (YS503), duplicate access-table entries (YS504),
     unresolved symbolic coefficients (YS506), statically reachable
     division by a provably-zero operand (YS507) and provably-zero
     dead arithmetic (YS508) are reported;
   - the plan's own FLOP/byte counts agree with the expression-level
     {!Analysis} the ECM model is fed, so certified counts are an
     independent check on the model inputs rather than a restatement
     of them (YS510).

   The dynamic counterparts are the engine's YS45x sanitizer traps
   (bounds escapes surface as YS453 when an uncertified plan is forced
   through) and the YS511 traced-traffic cross-validation performed at
   certification time. *)

module D = Diagnostic
module Plan = Yasksite_stencil.Plan
module Expr = Yasksite_stencil.Expr
module Analysis = Yasksite_stencil.Analysis
module Grid = Yasksite_grid.Grid

let dedup = Schedule_lint.dedup

(* ------------------------------------------------------------------ *)
(* Abstract stack interpretation of postfix programs                   *)

type stack_report = {
  max_depth : int;  (* highest stack occupancy reached before any fault *)
  final : int;  (* values left after the last instruction; -1 on underflow *)
  underflow_at : int option;  (* first instruction popping an empty stack *)
}

let simulate code =
  let sp = ref 0 and mx = ref 0 and under = ref None in
  (try
     Array.iteri
       (fun i (ins : Plan.instr) ->
         let need n = if !sp < n then begin under := Some i; raise Exit end in
         match ins with
         | Push _ | Load _ | Sym _ ->
             incr sp;
             if !sp > !mx then mx := !sp
         | Neg -> need 1
         | Add | Sub | Mul | Div | Min | Max ->
             need 2;
             decr sp
         | Sel ->
             need 3;
             sp := !sp - 2)
       code
   with Exit -> ());
  { max_depth = !mx;
    final = (match !under with None -> !sp | Some _ -> -1);
    underflow_at = !under }

let measured_depth code =
  let r = simulate code in
  if r.underflow_at = None && r.final = 1 then Some r.max_depth else None

(* Constant propagation over the same stack discipline: only sound once
   [simulate] proved there is no underflow. *)
type avalue = Known of float | Unknown

let const_rules code =
  let ds = ref [] in
  let stack = ref [] in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> Unknown
  in
  Array.iteri
    (fun i (ins : Plan.instr) ->
      match ins with
      | Push c -> stack := Known c :: !stack
      | Load _ | Sym _ -> stack := Unknown :: !stack
      | Neg ->
          let v = pop () in
          stack :=
            (match v with Known c -> Known (-.c) | Unknown -> Unknown)
            :: !stack
      | (Add | Sub | Mul | Div) as op ->
          let b = pop () in
          let a = pop () in
          (match op with
          | Div ->
              (match b with
              | Known c when c = 0.0 ->
                  ds :=
                    D.errorf ~code:"YS507"
                      "instruction %d divides by a provably zero operand" i
                    :: !ds
              | _ -> ())
          | Mul ->
              let zero = function Known c -> c = 0.0 | Unknown -> false in
              if zero a || zero b then
                ds :=
                  D.warningf ~code:"YS508"
                    "instruction %d multiplies by a provably zero operand \
                     (dead arithmetic)"
                    i
                  :: !ds
          | _ -> ());
          let r =
            match (op, a, b) with
            | Plan.Add, Known x, Known y -> Known (x +. y)
            | Plan.Sub, Known x, Known y -> Known (x -. y)
            | Plan.Mul, Known x, Known y -> Known (x *. y)
            | Plan.Div, Known x, Known y -> Known (x /. y)
            | _ -> Unknown
          in
          stack := r :: !stack
      | (Min | Max) as op ->
          let b = pop () in
          let a = pop () in
          let r =
            match (op, a, b) with
            | Plan.Min, Known x, Known y -> Known (Float.min x y)
            | Plan.Max, Known x, Known y -> Known (Float.max x y)
            | _ -> Unknown
          in
          stack := r :: !stack
      | Sel ->
          let b = pop () in
          let a = pop () in
          let c = pop () in
          let r =
            match (c, a, b) with
            | Known vc, Known va, Known vb ->
                Known (if vc > 0.0 then va else vb)
            | _ -> Unknown
          in
          stack := r :: !stack)
    code;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Structure: every rule decidable from the plan alone                 *)

let structure (plan : Plan.t) =
  let n = Plan.n_slots plan in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* The access table itself: declared fields, rank-shaped offsets,
     duplicate entries. *)
  Array.iteri
    (fun s (a : Expr.access) ->
      if a.field < 0 || a.field >= plan.Plan.n_fields then
        add
          (D.errorf ~code:"YS500"
             "access-table slot %d reads field %d outside the declared \
              range [0, %d)"
             s a.field plan.Plan.n_fields);
      if Array.length a.offsets <> plan.Plan.rank then
        add
          (D.errorf ~code:"YS500"
             "access-table slot %d has %d offsets but the plan has rank %d"
             s (Array.length a.offsets) plan.Plan.rank))
    plan.Plan.accesses;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if plan.Plan.accesses.(i) = plan.Plan.accesses.(j) then
        add
          (D.warningf ~code:"YS504"
             "access-table slots %d and %d are duplicates (%s): the table \
              is not the canonical CSE-merged read set"
             i j
             (Expr.access_to_c plan.Plan.accesses.(i)))
    done
  done;
  let used = Array.make (max 1 n) false in
  let code = plan.Plan.code and depth = plan.Plan.depth in
  Array.iteri
    (fun i (ins : Plan.instr) ->
      match ins with
      | Plan.Sym name ->
          add
            (D.errorf ~code:"YS506"
               "instruction %d references unresolved coefficient %S: \
                the plan cannot be bound for execution"
               i name)
      | Plan.Load s ->
          if s < 0 || s >= n then
            add
              (D.errorf ~code:"YS500"
                 "instruction %d loads slot %d outside the access \
                  table (size %d)"
                 i s n)
          else used.(s) <- true
      | _ -> ())
    code;
  let r = simulate code in
  (match r.underflow_at with
  | Some i ->
      add
        (D.errorf ~code:"YS502"
           "instruction %d pops an empty stack (underflow): the \
            driver's unchecked stack would read garbage"
           i)
  | None ->
      if r.final = 0 then
        add
          (D.errorf ~code:"YS505"
             "the program leaves no value on the stack: there is no \
              result to store")
      else if r.final > 1 then
        add
          (D.errorf ~code:"YS505"
             "%d values are left on the stack after the final \
              instruction: all but the result are dead computation"
             r.final);
      if r.max_depth <> depth then
        add
          (D.errorf ~code:"YS502"
             "declared stack depth %d but the program's measured \
              maximum is %d: the driver sizes its unchecked stack \
              from the declaration"
             depth r.max_depth);
      ds := List.rev_append (const_rules code) !ds);
  for s = 0 to n - 1 do
    if not used.(s) then
      add
        (D.warningf ~code:"YS503"
           "access-table slot %d (%s) is never read by the body (dead \
            load): traffic counts overbill the kernel"
           s
           (Expr.access_to_c plan.Plan.accesses.(s)))
  done;
  dedup (List.rev !ds)

(* ------------------------------------------------------------------ *)
(* Bounds: the plan against concrete grids                             *)

let bounds (plan : Plan.t) ~inputs ~output =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  if Array.length inputs <> plan.Plan.n_fields then
    add
      (D.errorf ~code:"YS501"
         "the plan reads %d field(s) but %d input grid(s) were given"
         plan.Plan.n_fields (Array.length inputs));
  let rank_ok = ref (Array.length inputs = plan.Plan.n_fields) in
  Array.iteri
    (fun i g ->
      if Grid.rank g <> plan.Plan.rank then begin
        rank_ok := false;
        add
          (D.errorf ~code:"YS501"
             "input grid %d has rank %d but the plan has rank %d" i
             (Grid.rank g) plan.Plan.rank)
      end)
    inputs;
  if Grid.rank output <> plan.Plan.rank then
    add
      (D.errorf ~code:"YS501"
         "the output grid has rank %d but the plan has rank %d"
         (Grid.rank output) plan.Plan.rank);
  (* The driver's table index for slot s at interior x is
     [x + offset + left_pad], and the left pad covers exactly the halo:
     the access stays inside the allocation for every interior point
     iff |offset| <= halo in every dimension — independent of the grid
     extents, which is what makes the certificate transferable across
     problem sizes. *)
  if !rank_ok then
    Array.iteri
      (fun s (a : Expr.access) ->
        if a.field >= 0 && a.field < Array.length inputs
           && Array.length a.offsets = plan.Plan.rank
        then begin
          let h = Grid.halo inputs.(a.field) in
          Array.iteri
            (fun d off ->
              if abs off > h.(d) then
                add
                  (D.errorf ~code:"YS501"
                     "slot %d (%s) reaches %d cell(s) past the interior \
                      in dimension %d but field %d's halo is only %d \
                      wide: the access escapes the allocation"
                     s
                     (Expr.access_to_c a)
                     (abs off) d a.field h.(d)))
            a.offsets
        end)
      plan.Plan.accesses;
  dedup (List.rev !ds)

(* ------------------------------------------------------------------ *)
(* Counts: the plan's own work, cross-validated against Analysis       *)

type counts = {
  adds : int;
  muls : int;
  divs : int;
  flops : int;
  loads : int;
  stores : int;
}

let counts (plan : Plan.t) =
  let adds = ref 0 and muls = ref 0 and divs = ref 0 in
  Array.iter
    (fun (ins : Plan.instr) ->
      match ins with
      (* Min/Max/Sel are billed as additive work, matching
         Analysis.count_ops. *)
      | Plan.Add | Plan.Sub | Plan.Min | Plan.Max | Plan.Sel -> incr adds
      | Plan.Mul -> incr muls
      | Plan.Div -> incr divs
      | _ -> ())
    plan.Plan.code;
  let adds = !adds and muls = !muls and divs = !divs in
  { adds;
    muls;
    divs;
    flops = adds + muls + divs;
    loads = Plan.n_slots plan;
    stores = 1 }

let counts_agree (plan : Plan.t) (info : Analysis.t) =
  let c = counts plan in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  if c.loads <> info.Analysis.loads then
    add
      (D.errorf ~code:"YS510"
         "the plan's access table has %d slots but the analysis counts \
          %d distinct loads per update"
         c.loads info.Analysis.loads);
  let plan_acc = List.sort compare (Array.to_list plan.Plan.accesses) in
  let ana_acc = List.sort compare info.Analysis.accesses in
  if plan_acc <> ana_acc then
    add
      (D.errorf ~code:"YS510"
         "the plan's access table is not the analysis read set: traced \
          traffic and modeled traffic would diverge");
  if c.stores <> info.Analysis.stores then
    add
      (D.errorf ~code:"YS510"
         "the plan stores %d value(s) per update but the analysis bills %d"
         c.stores info.Analysis.stores);
  (* The analysis counts the constant-folded tree the plan executes,
     so the counts agree; a plan that executes more than is billed
     means the model's in-core input undercounts the kernel. *)
  if c.flops > info.Analysis.flops then
    add
      (D.errorf ~code:"YS510"
         "the plan executes %d flops per update but the analysis bills \
          only %d: the ECM in-core input undercounts the kernel"
         c.flops info.Analysis.flops);
  if c.divs > info.Analysis.divs then
    add
      (D.errorf ~code:"YS510"
         "the plan executes %d division(s) per update but the analysis \
          bills only %d"
         c.divs info.Analysis.divs);
  dedup (List.rev !ds)

(* ------------------------------------------------------------------ *)

let check ?info (plan : Plan.t) ~inputs ~output =
  let ds = structure plan @ bounds plan ~inputs ~output in
  let ds =
    match info with
    | None -> ds
    | Some info -> ds @ counts_agree plan info
  in
  dedup ds
