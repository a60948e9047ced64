module Expr = Yasksite_stencil.Expr
module Spec = Yasksite_stencil.Spec
module Parser = Yasksite_stencil.Parser
module D = Diagnostic

(* A kernel under analysis: the expression plus whatever location
   information the input form could provide. DSL-built specs have no
   source text, so every location degrades to [No_loc]; parser-sourced
   kernels carry the spans collected by [Parser.parse_expr_located]. *)
type ctx = {
  rank : int;
  n_fields : int;
  declared : bool;  (* n_fields was given, not inferred from the refs *)
  expr : Expr.t;
  refs : (Expr.access * D.loc) list;  (* left-to-right source order *)
  divisors : (Expr.t * D.loc) list;
}

let span (pos, stop) = D.Span { pos; stop }

let rec is_literal_zero = function
  | Expr.Const c -> c = 0.0
  | Expr.Neg x -> is_literal_zero x
  | _ -> false

let rec collect_divisors acc = function
  | Expr.Const _ | Expr.Coeff _ | Expr.Ref _ -> acc
  | Expr.Neg x -> collect_divisors acc x
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Min (a, b)
  | Expr.Max (a, b) ->
      collect_divisors (collect_divisors acc a) b
  | Expr.Div (a, b) ->
      collect_divisors (collect_divisors ((b, D.No_loc) :: acc) a) b
  | Expr.Select (c, a, b) ->
      collect_divisors (collect_divisors (collect_divisors acc c) a) b

(* ------------------------------------------------------------------ *)
(* Rules *)

(* YS101: every declared input field must be read somewhere. *)
let rule_unused_fields ctx =
  let read =
    List.sort_uniq compare
      (List.map (fun ((a : Expr.access), _) -> a.field) ctx.refs)
  in
  List.concat_map
    (fun f ->
      if List.mem f read then []
      else begin
        (* When the field count was inferred, the declaration comes from
           some reference to a higher field — point the caret there. *)
        let loc =
          if ctx.declared then D.No_loc
          else
            match
              List.find_opt
                (fun ((a : Expr.access), _) -> a.field > f)
                ctx.refs
            with
            | Some (_, l) -> l
            | None -> D.No_loc
        in
        [ D.errorf ~loc ~code:"YS101"
            "input field f%d is declared but never read (dead input stream \
             inflates the code balance)"
            f ]
      end)
    (List.init ctx.n_fields (fun i -> i))

(* YS102: the same access appearing twice defeats the post-CSE load-set
   accounting (Analysis deduplicates accesses before counting loads). *)
let rule_duplicate_refs ctx =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun ((a : Expr.access), loc) ->
      if Hashtbl.mem seen a then
        [ D.warningf ~loc ~code:"YS102"
            "duplicate reference %s: repeated loads are merged by CSE, so \
             operation counts and load counts diverge"
            (Expr.access_to_c a) ]
      else begin
        Hashtbl.add seen a ();
        []
      end)
    ctx.refs

(* YS103/YS104: divisions that cannot be modeled. *)
let rule_divisions ctx =
  List.concat_map
    (fun (divisor, loc) ->
      if is_literal_zero divisor then
        [ D.errorf ~loc ~code:"YS103" "division by literal zero" ]
      else
        match Expr.coeff_names divisor with
        | [] -> []
        | names ->
            [ D.hintf ~loc ~code:"YS104"
                "division by symbolic coefficient %s: resolve coefficients \
                 before modeling so the divide can be strength-reduced"
                (String.concat ", " names) ])
    ctx.divisors

(* YS105: a radius-0 "stencil" is a point-wise map; blocking and
   wavefront options are meaningless for it. *)
let rule_degenerate ctx =
  match ctx.refs with
  | [] -> []
  | refs ->
      if
        List.for_all
          (fun ((a : Expr.access), _) ->
            Array.for_all (fun d -> d = 0) a.offsets)
          refs
      then
        [ D.hintf ~code:"YS105"
            "radius-0 kernel reads no neighbors: this is a point-wise map, \
             spatial/temporal blocking cannot help it" ]
      else []

(* YS106: wavefront scheduling shifts successive timesteps by a fixed
   [r0 + 1] along the streamed dimension, assuming a symmetric halo
   there; an asymmetric footprint makes temporal blocking illegal or
   wasteful (Engine.Wavefront uses the absolute radius). *)
let rule_asymmetric ctx =
  match ctx.refs with
  | [] -> []
  | refs ->
      let fwd = ref 0 and bwd = ref 0 in
      let fwd_loc = ref D.No_loc and bwd_loc = ref D.No_loc in
      List.iter
        (fun ((a : Expr.access), loc) ->
          let d = a.offsets.(0) in
          if d > !fwd then begin
            fwd := d;
            fwd_loc := loc
          end;
          if -d > !bwd then begin
            bwd := -d;
            bwd_loc := loc
          end)
        refs;
      if !fwd <> !bwd then
        [ D.warningf
            ~loc:(if !fwd > !bwd then !fwd_loc else !bwd_loc)
            ~code:"YS106"
            "asymmetric footprint along the streamed dimension (forward \
             radius %d, backward radius %d): wavefront/temporal blocking \
             assumes a symmetric halo and will over-shift"
            !fwd !bwd ]
      else []

let check ctx =
  if ctx.refs = [] then
    [ D.errorf ~code:"YS107"
        "expression reads no field: there is nothing to stream, so the \
         model has no data traffic to predict" ]
    @ rule_divisions ctx
  else
    rule_unused_fields ctx @ rule_duplicate_refs ctx @ rule_divisions ctx
    @ rule_degenerate ctx @ rule_asymmetric ctx

(* ------------------------------------------------------------------ *)
(* Entry points *)

let spec (s : Spec.t) =
  let refs =
    List.rev
      (Expr.fold_accesses s.expr ~init:[] ~f:(fun acc a ->
           (a, D.No_loc) :: acc))
  in
  check
    { rank = s.rank;
      n_fields = s.n_fields;
      declared = true;
      expr = s.expr;
      refs;
      divisors = List.rev (collect_divisors [] s.expr) }

let source ~rank src =
  match Parser.parse_expr_located ~rank src with
  | Error (pos, msg) ->
      [ D.errorf ~loc:(span (pos, pos + 1)) ~code:"YS100" "%s" msg ]
  | Ok located ->
      check
        { rank;
          n_fields =
            1
            + List.fold_left
                (fun m ((a : Expr.access), _) -> max m a.field)
                0 located.Parser.refs;
          declared = false;
          expr = located.Parser.expr;
          refs =
            List.map (fun (a, sp) -> (a, span sp)) located.Parser.refs;
          divisors =
            List.map (fun (e, sp) -> (e, span sp)) located.Parser.divisors }
