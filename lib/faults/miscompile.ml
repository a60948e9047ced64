(* Seeded miscompile injector: mutate emitted kernel source to prove
   the YS6xx translation validator actually fires.

   Every mutation is structural: the source is parsed into the checked
   kernel AST (Stencil.Kernel_ast), one node is rewritten,
   and the result is printed back — so a mutant is always
   well-formed OCaml in the generated shape, and the only thing wrong
   with it is the miscompile itself. Site selection is driven by the
   shared splitmix64 streams, so a (seed, class, source) triple always
   yields the same mutant. *)

module NL = Yasksite_stencil.Kernel_ast
module Prng = Yasksite_util.Prng

type cls =
  | Coeff_perturb  (* one-ulp flip of a coefficient literal *)
  | Swap_assoc  (* reassociate a left-leaning [+.] chain rightward *)
  | Offset_off_by_one  (* nudge one address shift by ±1 *)
  | Drop_term  (* drop the trailing term of a sum *)
  | Wrong_slot  (* read a different data handle or row base *)
  | Rename_registration  (* register under a non-ABI name *)
  | Wrong_temp  (* one use of a temporary names another temporary *)

let classes =
  [ Coeff_perturb;
    Swap_assoc;
    Offset_off_by_one;
    Drop_term;
    Wrong_slot;
    Rename_registration;
    Wrong_temp ]

let class_name = function
  | Coeff_perturb -> "coeff-perturb"
  | Swap_assoc -> "swap-assoc"
  | Offset_off_by_one -> "offset-off-by-one"
  | Drop_term -> "drop-term"
  | Wrong_slot -> "wrong-slot"
  | Rename_registration -> "rename-registration"
  | Wrong_temp -> "wrong-temp"

let class_of_name s =
  List.find_opt (fun c -> String.equal (class_name c) s) classes

(* The YS6xx code the validator is required to report for a mutant of
   this class (further codes may fire alongside — an off-by-one shift
   on a boundary access also escapes the halo, say). *)
let expected_code = function
  | Coeff_perturb -> "YS601"
  | Swap_assoc -> "YS602"
  | Offset_off_by_one -> "YS604"
  | Drop_term -> "YS603"
  | Wrong_slot -> "YS605"
  | Rename_registration -> "YS610"
  | Wrong_temp -> "YS613"

(* ------------------------------------------------------------------ *)
(* Site-indexed rewriting over the checked AST                         *)

(* Sites are numbered in preorder over the unit's expressions: each
   [let]-bound temporary's in binding order, then the stored one. [f]
   sees the temporaries bound where the node is evaluated, most recent
   first, so a rewrite can keep the mutant well-scoped. *)
let count_sites f (ast : NL.unit_ast) =
  let n = ref 0 in
  let rec go bound e =
    (match f bound e with Some _ -> incr n | None -> ());
    match e with
    | NL.Lit _ | NL.Get _ | NL.Temp _ -> ()
    | NL.Neg x -> go bound x
    | NL.Bin (_, a, b) | NL.Fmin (a, b) | NL.Fmax (a, b) ->
        go bound a;
        go bound b
    | NL.Sel (c, a, b) ->
        go bound c;
        go bound a;
        go bound b
  in
  let bound =
    List.fold_left
      (fun bound (t, e) ->
        go bound e;
        t :: bound)
      [] ast.NL.row_lets
  in
  go bound ast.NL.row_expr;
  !n

(* Replace the [site]-th node [f] offers a rewrite for; other matching
   nodes are left alone. *)
let rewrite_site f ~site (ast : NL.unit_ast) =
  let n = ref (-1) in
  let rec go bound e =
    let hit =
      match f bound e with
      | Some e' ->
          incr n;
          if !n = site then Some e' else None
      | None -> None
    in
    match hit with
    | Some e' -> e'
    | None -> (
        match e with
        | NL.Lit _ | NL.Get _ | NL.Temp _ -> e
        | NL.Neg x -> NL.Neg (go bound x)
        | NL.Bin (o, a, b) -> NL.Bin (o, go bound a, go bound b)
        | NL.Fmin (a, b) -> NL.Fmin (go bound a, go bound b)
        | NL.Fmax (a, b) -> NL.Fmax (go bound a, go bound b)
        | NL.Sel (c, a, b) -> NL.Sel (go bound c, go bound a, go bound b))
  in
  let bound, lets =
    List.fold_left
      (fun (bound, lets) (t, e) -> (t :: bound, (t, go bound e) :: lets))
      ([], []) ast.NL.row_lets
  in
  let row_expr = go bound ast.NL.row_expr in
  { ast with NL.row_lets = List.rev lets; row_expr }

let ulp_flip c =
  NL.Lit (Int64.float_of_bits (Int64.add (Int64.bits_of_float c) 1L))

let coeff_site _ = function
  | NL.Lit c when c = c && c <> infinity && c <> neg_infinity ->
      Some (ulp_flip c)
  | _ -> None

let assoc_site _ = function
  | NL.Bin (NL.Add, NL.Bin (NL.Add, a, b), c) ->
      Some (NL.Bin (NL.Add, a, NL.Bin (NL.Add, b, c)))
  | _ -> None

let offset_site delta _ = function
  | NL.Get (NL.Unit_addr a) ->
      Some (NL.Get (NL.Unit_addr { a with shift = a.shift + delta }))
  | NL.Get (NL.Tab_addr a) ->
      Some (NL.Get (NL.Tab_addr { a with shift = a.shift + delta }))
  | _ -> None

let drop_site _ = function NL.Bin (NL.Add, a, _) -> Some a | _ -> None

(* [flavor]: 0 rewires the data handle, 1 the row base — both are
   wrong-slot reads the validator must pin as YS605. *)
let slot_site flavor _ = function
  | NL.Get (NL.Unit_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Unit_addr { a with data = a.data + 1 })
         else NL.Get (NL.Unit_addr { a with row = a.row + 1 }))
  | NL.Get (NL.Tab_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Tab_addr { a with data = a.data + 1 })
         else NL.Get (NL.Tab_addr { a with row = a.row + 1 }))
  | _ -> None

(* A use of a temporary renamed to the most recently bound other one, so
   the mutant still compiles. *)
let temp_site bound = function
  | NL.Temp a -> Option.map (fun b -> NL.Temp b) (List.find_opt (( <> ) a) bound)
  | _ -> None

(* ------------------------------------------------------------------ *)

let mutate_expr rng f (ast : NL.unit_ast) =
  let sites = count_sites f ast in
  if sites = 0 then None
  else
    let site = Prng.int rng ~bound:sites in
    Some (rewrite_site f ~site ast)

let mutate_ast rng cls (ast : NL.unit_ast) =
  match cls with
  | Coeff_perturb -> mutate_expr rng coeff_site ast
  | Swap_assoc -> mutate_expr rng assoc_site ast
  | Offset_off_by_one ->
      let delta = if Prng.bool rng then 1 else -1 in
      mutate_expr rng (offset_site delta) ast
  | Drop_term -> mutate_expr rng drop_site ast
  | Wrong_slot ->
      let flavor = Prng.int rng ~bound:2 in
      mutate_expr rng (slot_site flavor) ast
  | Rename_registration ->
      Some { ast with NL.reg_name = ast.NL.reg_name ^ "-stale" }
  | Wrong_temp -> mutate_expr rng temp_site ast

let mutate ~seed cls src =
  match NL.parse src with
  | Error (msg, line) ->
      Error (Printf.sprintf "source does not parse (line %d: %s)" line msg)
  | Ok ast -> (
      let rng = Prng.create ~seed in
      match mutate_ast rng cls ast with
      | None ->
          Error
            (Printf.sprintf "no %s mutation site in this kernel"
               (class_name cls))
      | Some ast' ->
          Ok
            (NL.print
               ~header:"yasksite kernel unit reprinted from the checked AST"
               ast'))

let corpus ~seed ~per_class src =
  List.concat_map
    (fun cls ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun i ->
          match mutate ~seed:(seed + (1000 * i)) cls src with
          | Error _ -> None
          | Ok m ->
              if Hashtbl.mem seen m then None
              else begin
                Hashtbl.replace seen m ();
                Some (cls, m)
              end)
        (List.init per_class Fun.id))
    classes
