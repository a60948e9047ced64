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

let classes =
  [ Coeff_perturb;
    Swap_assoc;
    Offset_off_by_one;
    Drop_term;
    Wrong_slot;
    Rename_registration ]

let class_name = function
  | Coeff_perturb -> "coeff-perturb"
  | Swap_assoc -> "swap-assoc"
  | Offset_off_by_one -> "offset-off-by-one"
  | Drop_term -> "drop-term"
  | Wrong_slot -> "wrong-slot"
  | Rename_registration -> "rename-registration"

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

(* ------------------------------------------------------------------ *)
(* Site-indexed rewriting over the checked AST                         *)

let count_sites f e =
  let n = ref 0 in
  let rec go e =
    (match f e with Some _ -> incr n | None -> ());
    match e with
    | NL.Lit _ | NL.Get _ -> ()
    | NL.Neg x -> go x
    | NL.Bin (_, a, b) | NL.Fmin (a, b) | NL.Fmax (a, b) ->
        go a;
        go b
    | NL.Sel (c, a, b) ->
        go c;
        go a;
        go b
  in
  go e;
  !n

(* Replace the [site]-th node (preorder) [f] offers a rewrite for;
   other matching nodes are left alone. *)
let rewrite_site f ~site e =
  let n = ref (-1) in
  let rec go e =
    let hit =
      match f e with
      | Some e' ->
          incr n;
          if !n = site then Some e' else None
      | None -> None
    in
    match hit with
    | Some e' -> e'
    | None -> (
        match e with
        | NL.Lit _ | NL.Get _ -> e
        | NL.Neg x -> NL.Neg (go x)
        | NL.Bin (o, a, b) -> NL.Bin (o, go a, go b)
        | NL.Fmin (a, b) -> NL.Fmin (go a, go b)
        | NL.Fmax (a, b) -> NL.Fmax (go a, go b)
        | NL.Sel (c, a, b) -> NL.Sel (go c, go a, go b))
  in
  go e

let ulp_flip c =
  NL.Lit (Int64.float_of_bits (Int64.add (Int64.bits_of_float c) 1L))

let coeff_site = function
  | NL.Lit c when c = c && c <> infinity && c <> neg_infinity ->
      Some (ulp_flip c)
  | _ -> None

let assoc_site = function
  | NL.Bin (NL.Add, NL.Bin (NL.Add, a, b), c) ->
      Some (NL.Bin (NL.Add, a, NL.Bin (NL.Add, b, c)))
  | _ -> None

let offset_site delta = function
  | NL.Get (NL.Unit_addr a) ->
      Some (NL.Get (NL.Unit_addr { a with shift = a.shift + delta }))
  | NL.Get (NL.Tab_addr a) ->
      Some (NL.Get (NL.Tab_addr { a with shift = a.shift + delta }))
  | _ -> None

let drop_site = function NL.Bin (NL.Add, a, _) -> Some a | _ -> None

(* [flavor]: 0 rewires the data handle, 1 the row base — both are
   wrong-slot reads the validator must pin as YS605. *)
let slot_site flavor = function
  | NL.Get (NL.Unit_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Unit_addr { a with data = a.data + 1 })
         else NL.Get (NL.Unit_addr { a with row = a.row + 1 }))
  | NL.Get (NL.Tab_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Tab_addr { a with data = a.data + 1 })
         else NL.Get (NL.Tab_addr { a with row = a.row + 1 }))
  | _ -> None

(* ------------------------------------------------------------------ *)

let mutate_expr rng f (ast : NL.unit_ast) =
  let sites = count_sites f ast.NL.row_expr in
  if sites = 0 then None
  else
    let site = Prng.int rng ~bound:sites in
    Some { ast with NL.row_expr = rewrite_site f ~site ast.NL.row_expr }

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
