(* Common-subexpression elimination in kernel plans and generated
   kernels.

   The contract under test: [Lower.lower] computes every operator
   subtree the folded tree holds more than once a single time, keeps it
   in a temporary and recalls it, and the stored values are bit for bit
   those of the tree lowering kept in [Lower_reference], on the plan
   interpreter and on generated kernels alike. The fingerprint stays the
   tree's, so no memo or store key moves, while the kernel key of a plan
   with temporaries does. The inputs force sharing: signed zeros that
   must not be merged, divisions that produce NaN, shared select
   operands, sharing nested in sharing, and the stages of random hdiff
   fusion partitions. *)

module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Gen = Yasksite_stencil.Gen
module Dsl = Yasksite_stencil.Dsl
module Expr = Yasksite_stencil.Expr
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Codegen = Yasksite_stencil.Codegen
module Ast = Yasksite_stencil.Kernel_ast
module Program = Yasksite_stencil.Program
module Suite = Yasksite_stencil.Suite
module Config = Yasksite_ecm.Config
module Advisor = Yasksite_ecm.Advisor
module Cache = Yasksite_ecm.Cache
module Sweep = Yasksite_engine.Sweep
module Prog = Yasksite_engine.Prog
module Lint = Yasksite_lint.Lint
module D = Yasksite_lint.Diagnostic
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let backends = [ Sweep.Plan_backend; Sweep.Codegen_backend ]

let make_grid ~halo ~dims seed =
  let rng = Prng.create ~seed in
  let g = Grid.create ~halo ~dims () in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.25;
  g

(* The interior values' IEEE bits, in iteration order. *)
let bits g =
  let acc = ref [] in
  Grid.iter_interior g ~f:(fun p ->
      acc := Int64.bits_of_float (Grid.get g p) :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Specs with forced sharing                                           *)

(* Random bodies from [Gen.spec] made to repeat themselves. [z] is
   [e * e], never negative, so [-0.0 * z] and [0.0 * z] are zeros of
   opposite sign and [1 / (a - b)] of them an infinity whose sign shows
   whether the two products were wrongly merged. *)
let shared_spec ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let e = (Gen.spec rng ~rank).Spec.expr in
  let f = (Gen.spec rng ~rank).Spec.expr in
  let z = Expr.Mul (e, e) in
  let shapes =
    Expr.
      [| (* signed zeros kept apart *)
         Div (Const 1.0, Sub (Mul (Const (-0.0), z), Mul (Const 0.0, z)));
         (* a NaN-producing division over a shared difference *)
         Add (Div (Sub (e, f), Sub (e, f)), Div (Sub (e, e), Sub (e, e)));
         (* shared select operands *)
         Select (Sub (e, f), Mul (e, f), Select (f, Mul (e, f), Neg e));
         (* sharing nested in sharing *)
         (let s = Add (z, f) in
          Mul (Add (s, e), Sub (Add (s, e), Min (s, Max (e, f))))) |]
  in
  let first = shapes.(seed mod Array.length shapes) in
  let expr =
    if Prng.bool rng then first
    else Expr.Add (first, shapes.(Prng.int rng ~bound:(Array.length shapes)))
  in
  Spec.v ~name:(Printf.sprintf "shared-%d" seed) ~rank expr

(* hdiff fused along a random partition. *)
let hdiff_partition rng =
  Program.fuse Suite.hdiff
    ~inline:
      (List.filter (fun _ -> Prng.bool rng) (Program.inlinable Suite.hdiff))

let hdiff_stage_specs ~seed =
  let fp = hdiff_partition (Prng.create ~seed) in
  Array.to_list (Array.map (Program.stage_spec fp) fp.Program.stages)

(* ------------------------------------------------------------------ *)
(* Bit identity against the tree lowering                              *)

(* One sweep with [plan] on [backend]: the output's interior bits. *)
let sweep ~backend ~plan spec inputs =
  let g = inputs.(0) in
  let o = Grid.create ~halo:(Grid.halo g) ~dims:(Grid.dims g) () in
  ignore (Sweep.run ~backend ~plan spec ~inputs ~output:o : Sweep.stats);
  bits o

let shared_matches_reference =
  QCheck.Test.make
    ~name:"shared subexpressions bit-identical to the tree on both backends"
    ~count:16 QCheck.small_int (fun seed ->
      let spec = shared_spec ~seed in
      let rank = spec.Spec.rank in
      let halo = Analysis.halo (Analysis.of_spec spec) in
      let rng = Prng.create ~seed:(seed + 500) in
      (* the last extent spans the interpreter's 64-point chunks *)
      let dims =
        Array.init rank (fun i ->
            if i = rank - 1 then 5 + Prng.int rng ~bound:80
            else 3 + Prng.int rng ~bound:5)
      in
      let inputs = [| make_grid ~halo ~dims (seed + 1) |] in
      let reference =
        sweep ~backend:Sweep.Plan_backend ~plan:(Lower_reference.lower spec)
          spec inputs
      in
      let plan = Lower.lower spec in
      plan.Plan.temps > 0
      && List.for_all
           (fun backend -> sweep ~backend ~plan spec inputs = reference)
           backends)

(* Every output of a random hdiff partition, run by [Prog.run] on each
   backend, against the stages swept one by one with the tree plans. *)
let reference_run (p : Program.t) ~inputs =
  let hp = Program.halo_plan p in
  let env = Hashtbl.create 16 in
  List.iter (fun (n, g) -> Hashtbl.replace env n g) inputs;
  let dims = Grid.dims (snd (List.hd inputs)) in
  List.iter
    (fun name ->
      let s = Option.get (Program.find_stage p name) in
      let ext = List.assoc name hp.Program.stage_ext in
      let output = Grid.create ~halo:ext ~dims () in
      let spec = Program.stage_spec p s in
      ignore
        (Sweep.run ~backend:Sweep.Plan_backend
           ~plan:(Lower_reference.lower spec) ~extend:ext spec
           ~inputs:(Array.map (Hashtbl.find env) s.Program.reads)
           ~output
          : Sweep.stats);
      Hashtbl.replace env name output)
    (Result.get_ok (Program.topo p));
  Array.to_list
    (Array.map (fun o -> (o, bits (Hashtbl.find env o))) p.Program.outputs)

let hdiff_matches_reference =
  QCheck.Test.make
    ~name:"hdiff partitions bit-identical to the tree on both backends"
    ~count:6 QCheck.small_int (fun seed ->
      let fp = hdiff_partition (Prng.create ~seed) in
      let dims = [| 10; 12 |] in
      let inputs =
        List.mapi
          (fun i (name, halo) -> (name, make_grid ~halo ~dims (seed + i)))
          (Program.halo_plan Suite.hdiff).Program.input_halo
      in
      let reference = reference_run fp ~inputs in
      List.for_all
        (fun backend ->
          let r = Prog.run ~backend fp ~inputs in
          List.map (fun (n, g) -> (n, bits g)) r.Prog.outputs = reference)
        backends)

(* ------------------------------------------------------------------ *)
(* What the code evaluates                                             *)

(* A subtree's identity: constants by their bits, as [Expr.equal]
   compares them. *)
let rec key (e : Expr.t) =
  let k2 op a b = Printf.sprintf "(%s %s %s)" op (key a) (key b) in
  match e with
  | Const c -> Printf.sprintf "%Lx" (Int64.bits_of_float c)
  | Coeff n -> n
  | Ref a -> Expr.access_to_c a
  | Neg a -> "(~ " ^ key a ^ ")"
  | Add (a, b) -> k2 "+" a b
  | Sub (a, b) -> k2 "-" a b
  | Mul (a, b) -> k2 "*" a b
  | Div (a, b) -> k2 "/" a b
  | Min (a, b) -> k2 "m" a b
  | Max (a, b) -> k2 "M" a b
  | Select (c, a, b) -> Printf.sprintf "(? %s %s %s)" (key c) (key a) (key b)

(* Run the code on trees instead of values: the tree it computes, and
   the subtree each operator it executes computes. *)
let evaluate (plan : Plan.t) =
  let stack = ref [] and temps = Hashtbl.create 8 and ops = ref [] in
  let pop () =
    match !stack with
    | e :: rest ->
        stack := rest;
        e
    | [] -> Alcotest.fail "stack underflow"
  in
  let op e =
    ops := e :: !ops;
    stack := e :: !stack
  in
  let bin f =
    let b = pop () in
    let a = pop () in
    op (f a b)
  in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Push c -> stack := Expr.Const c :: !stack
      | Load s -> stack := Expr.Ref plan.Plan.accesses.(s) :: !stack
      | Sym n -> stack := Expr.Coeff n :: !stack
      | Neg -> op (Expr.Neg (pop ()))
      | Add -> bin (fun a b -> Expr.Add (a, b))
      | Sub -> bin (fun a b -> Expr.Sub (a, b))
      | Mul -> bin (fun a b -> Expr.Mul (a, b))
      | Div -> bin (fun a b -> Expr.Div (a, b))
      | Min -> bin (fun a b -> Expr.Min (a, b))
      | Max -> bin (fun a b -> Expr.Max (a, b))
      | Sel ->
          let b = pop () in
          let a = pop () in
          let c = pop () in
          op (Expr.Select (c, a, b))
      | Save t -> Hashtbl.replace temps t (List.hd !stack)
      | Recall t -> stack := Hashtbl.find temps t :: !stack)
    plan.Plan.code;
  (pop (), List.rev !ops)

(* The distinct operator subtrees of a tree. *)
let distinct_ops e =
  let seen = Hashtbl.create 64 in
  let rec go (e : Expr.t) =
    match e with
    | Const _ | Coeff _ | Ref _ -> ()
    | Neg a ->
        Hashtbl.replace seen (key e) ();
        go a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b)
    | Max (a, b) ->
        Hashtbl.replace seen (key e) ();
        go a;
        go b
    | Select (c, a, b) ->
        Hashtbl.replace seen (key e) ();
        go c;
        go a;
        go b
  in
  go e;
  Hashtbl.length seen

(* The code computes the folded tree, no operator subtree twice, and
   every distinct one once. *)
let evaluates_each_subtree_once spec =
  let plan = Lower.lower spec in
  let tree = Expr.cfold spec.Spec.expr in
  let result, ops = evaluate plan in
  let seen = Hashtbl.create 64 in
  let twice =
    List.exists
      (fun e ->
        let k = key e in
        Hashtbl.mem seen k || (Hashtbl.replace seen k (); false))
      ops
  in
  Expr.equal result tree && (not twice)
  && List.length ops = distinct_ops tree

let no_subtree_twice =
  QCheck.Test.make ~name:"no operator subtree is evaluated twice" ~count:40
    QCheck.small_int (fun seed ->
      evaluates_each_subtree_once (shared_spec ~seed)
      && evaluates_each_subtree_once
           (Gen.spec (Prng.create ~seed) ~rank:(1 + (seed mod 3)))
      && List.for_all evaluates_each_subtree_once (hdiff_stage_specs ~seed))

(* ------------------------------------------------------------------ *)
(* Keys and proofs                                                     *)

(* The fingerprint is the tree's: computed without the DAG, equal to
   the plan's, and equal to the tree lowering's, so no ECM, Offsite,
   checkpoint or certificate key moves. *)
let fingerprints_unchanged =
  QCheck.Test.make ~name:"fingerprints are the tree's" ~count:40
    QCheck.small_int (fun seed ->
      List.for_all
        (fun spec ->
          let fp = Lower.fingerprint spec in
          fp = (Lower.lower spec).Plan.fingerprint
          && fp = (Lower_reference.lower spec).Plan.fingerprint)
        (shared_spec ~seed :: hdiff_stage_specs ~seed))

(* Both verifiers prove plans with temporaries: YS5xx finds no error
   (YS509 included) and no more work than the analysis bills, YS6xx
   finds the emitted kernel equal to the plan. *)
let verifiers_prove_temporaries =
  QCheck.Test.make ~name:"YS5xx and YS6xx prove plans with temporaries"
    ~count:30 QCheck.small_int (fun seed ->
      List.for_all
        (fun spec ->
          let info = Analysis.of_spec spec in
          let halo = Analysis.halo info in
          let dims = Array.make spec.Spec.rank 8 in
          let inputs =
            Array.init spec.Spec.n_fields (fun _ ->
                Grid.create ~halo ~dims ())
          in
          let output = Grid.create ~halo ~dims () in
          let plan = Lower.lower spec in
          let v = Codegen.variant_of ~plan ~inputs ~output in
          (not (D.has_errors (Lint.Plan.check ~info plan ~inputs ~output)))
          &&
          match Codegen.source ~plan v with
          | Error _ -> false
          | Ok src -> Lint.Native.check ~plan ~variant:v ~inputs src = [])
        (shared_spec ~seed :: hdiff_stage_specs ~seed))

(* ------------------------------------------------------------------ *)
(* Fixed cases                                                         *)

let test_save_and_recall () =
  let s = Dsl.(fld [ -1 ] +: fld [ 1 ]) in
  let plan = Lower.lower (Spec.v ~name:"square" ~rank:1 Dsl.(s *: s)) in
  Alcotest.(check bool) "code" true
    (plan.Plan.code
    = [| Plan.Load 0; Plan.Load 1; Plan.Add; Plan.Save 0; Plan.Recall 0;
         Plan.Mul |]);
  Alcotest.(check int) "depth" 2 plan.Plan.depth;
  Alcotest.(check int) "temps" 1 plan.Plan.temps;
  (* a repeated leaf is loaded again, not kept *)
  let leaf = Lower.lower (Spec.v ~name:"leaf" ~rank:1 Dsl.(fld [ 0 ] *: fld [ 0 ])) in
  Alcotest.(check int) "no temporary for a leaf" 0 leaf.Plan.temps

let test_signed_zeros_apart () =
  let z = Dsl.(fld [ 0 ] *: fld [ 0 ]) in
  let spec =
    Spec.v ~name:"zeros" ~rank:1 Dsl.((c (-0.0) *: z) -: (c 0.0 *: z))
  in
  let plan = Lower.lower spec in
  let _, ops = evaluate plan in
  Alcotest.(check int) "z, both products and the difference" 4
    (List.length ops);
  Alcotest.(check int) "only z is shared" 1 plan.Plan.temps;
  let g = make_grid ~halo:[| 0 |] ~dims:[| 6 |] 3 in
  let out = sweep ~backend:Sweep.Plan_backend ~plan spec [| g |] in
  Alcotest.(check bool) "every value is -0.0" true
    (List.for_all (fun b -> b = Int64.bits_of_float (-0.0)) out)

(* The operators the plans of clx/8's ECM-best hdiff partition (hdiff
   256^2, one thread, as perfbench's [program] workload runs it)
   execute per point of each stage, summed over its four stages: every
   [Neg], [Add], [Sub], [Mul], [Div], [Min], [Max] and [Sel]
   instruction. The tree lowering executes 420; the shared DAG 184. *)
let test_clx8_best_operator_count () =
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let best =
    Advisor.best_partition ~cache:(Cache.create ()) m Suite.hdiff
      ~dims:[| 256; 256 |] ~config:(Config.v ~threads:1 ())
  in
  let fp = Program.fuse Suite.hdiff ~inline:best.Advisor.inline in
  let operators (plan : Plan.t) =
    Array.fold_left
      (fun n (i : Plan.instr) ->
        match i with
        | Push _ | Load _ | Sym _ | Save _ | Recall _ -> n
        | Neg | Add | Sub | Mul | Div | Min | Max | Sel -> n + 1)
      0 plan.Plan.code
  in
  let total lower =
    Array.fold_left
      (fun n s -> n + operators (lower (Program.stage_spec fp s)))
      0 fp.Program.stages
  in
  Alcotest.(check int) "stages" 4 (Array.length fp.Program.stages);
  Alcotest.(check int) "tree operators" 420 (total Lower_reference.lower);
  Alcotest.(check int) "DAG operators" 184 (total Lower.lower)

(* The emitted kernel binds each temporary with a [let] the grammar
   reads back, and its kernel key differs from the tree plan's, so no
   kernel compiled from the tree form is revived for it; a plan without
   temporaries keeps its key. *)
let test_kernel_lets_and_key () =
  let spec = shared_spec ~seed:3 in
  let halo = Analysis.halo (Analysis.of_spec spec) in
  let dims = Array.make spec.Spec.rank 8 in
  let grid () = Grid.create ~halo ~dims () in
  let inputs = [| grid () |] and output = grid () in
  let plan = Lower.lower spec and tree = Lower_reference.lower spec in
  let v = Codegen.variant_of ~plan ~inputs ~output in
  let src =
    match Codegen.source ~plan v with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (match Ast.parse src with
  | Error (m, l) -> Alcotest.failf "line %d: %s" l m
  | Ok ast ->
      Alcotest.(check int) "one let per temporary" plan.Plan.temps
        (List.length ast.Ast.row_lets);
      Alcotest.(check bool) "parse (print ast) = ast" true
        (Ast.parse (Ast.print ~header:"reprinted" ast) = Ok ast));
  Alcotest.(check bool) "same fingerprint" true
    (plan.Plan.fingerprint = tree.Plan.fingerprint);
  Alcotest.(check bool) "another kernel key" false
    (Codegen.key ~plan v = Codegen.key ~plan:tree v);
  let heat = Suite.resolve_defaults Suite.heat_2d_5pt in
  let hp = Lower.lower heat in
  let hv =
    let g () = Grid.create ~halo:[| 1; 1 |] ~dims:[| 8; 8 |] () in
    Codegen.variant_of ~plan:hp ~inputs:[| g () |] ~output:(g ())
  in
  Alcotest.(check string) "a plan without temporaries keeps its key"
    (Codegen.key ~plan:(Lower_reference.lower heat) hv)
    (Codegen.key ~plan:hp hv)

let suite =
  [ qt shared_matches_reference;
    qt hdiff_matches_reference;
    qt no_subtree_twice;
    qt fingerprints_unchanged;
    qt verifiers_prove_temporaries;
    Alcotest.test_case "a shared subtree is saved and recalled" `Quick
      test_save_and_recall;
    Alcotest.test_case "signed zeros are not merged" `Quick
      test_signed_zeros_apart;
    Alcotest.test_case "clx/8 best hdiff partition operator count" `Quick
      test_clx8_best_operator_count;
    Alcotest.test_case "kernel lets and kernel key" `Quick
      test_kernel_lets_and_key ]
