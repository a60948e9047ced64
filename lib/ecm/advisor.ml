module Machine = Yasksite_arch.Machine
module Analysis = Yasksite_stencil.Analysis
module Program = Yasksite_stencil.Program
module Expr = Yasksite_stencil.Expr
module Pool = Yasksite_util.Pool

let dedup_options l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun o ->
      if Hashtbl.mem seen o then false
      else begin
        Hashtbl.add seen o ();
        true
      end)
    l

(* [None] (unblocked) plus power-of-two blockings of the non-streamed
   dimensions, clamped to the grid and de-duplicated. *)
let candidate_blocks ~dims =
  let rank = Array.length dims in
  let clamp v d = min v d in
  let blocks =
    match rank with
    | 1 -> []
    | 2 ->
        (* Stream y (dim 0), block x. *)
        List.map
          (fun bx -> [| 0; clamp bx dims.(1) |])
          [ 64; 128; 256; 512; 1024 ]
    | _ ->
        (* Stream z (dim 0), block y and x. *)
        List.concat_map
          (fun by ->
            List.map
              (fun bx -> [| 0; clamp by dims.(1); clamp bx dims.(2) |])
              [ 32; 64; 128; 256; 512 ])
          [ 4; 8; 16; 32; 64 ]
  in
  None :: List.map (fun b -> Some b) (dedup_options blocks)

(* All [rank]-tuples of positive ints whose product is [lanes]. *)
let factorizations lanes rank =
  let divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)) in
  let rec go rank lanes =
    if rank = 1 then [ [ lanes ] ]
    else
      List.concat_map
        (fun d -> List.map (fun rest -> d :: rest) (go (rank - 1) (lanes / d)))
        (divisors lanes)
  in
  List.map Array.of_list (go rank lanes)

(* [None] (linear layout) plus every factorization of the machine's SIMD
   width over the grid dimensions (YASK's fold candidates). *)
let candidate_folds (m : Machine.t) ~rank =
  let lanes = m.simd.dp_lanes in
  let folds =
    factorizations lanes rank
    (* The trivial all-in-x fold is the linear layout in disguise. Folds
       along the streamed dimension stay in the space: the model bills
       their lane waste under wavefront schedules, so they lose fairly. *)
    |> List.filter (fun f -> f.(rank - 1) <> lanes)
  in
  None :: List.map (fun f -> Some f) folds

(* Streaming stores combine with every spatial option but not with
   wavefronts (intermediate steps must stay cached for temporal reuse). *)
let candidate_temporal =
  [ (1, false); (1, true); (2, false); (4, false); (8, false) ]

let space m ~dims ~threads ~rank =
  let blocks = candidate_blocks ~dims in
  let folds = candidate_folds m ~rank in
  List.concat_map
    (fun block ->
      List.concat_map
        (fun fold ->
          List.map
            (fun (wavefront, streaming_stores) ->
              Config.v ?block ?fold ~wavefront ~threads ~streaming_stores ())
            candidate_temporal)
        folds)
    blocks

(* Every candidate with its prediction, best first. *)
let rank_space ?cache ?pool m (a : Analysis.t) ~dims configs =
  let predict =
    match cache with
    | Some cache -> Cache.predictor cache m a ~dims
    | None -> fun c -> Model.predict m a ~dims ~config:c
  in
  let score c = (c, predict c) in
  let scored =
    (* The model is pure, so the parallel map returns exactly the
       sequential scores in the same order. *)
    match pool with
    | Some pool -> Pool.parallel_map pool configs ~f:score
    | None -> List.map score configs
  in
  (* Stable sort keeps enumeration order among ties: simpler first. *)
  List.stable_sort
    (fun (_, p1) (_, p2) ->
      compare p2.Model.lups_chip p1.Model.lups_chip)
    scored

(* [filter] is the schedule-legality hook: the lint library sits above
   this one, so callers (tuner, CLI, Offsite) inject the predicate —
   typically [Schedule_lint.legal] — and illegal candidates are pruned
   before any model evaluation is spent on them. *)
let rank_all ?cache ?pool ?filter m (a : Analysis.t) ~dims ~threads =
  let configs = space m ~dims ~threads ~rank:a.spec.rank in
  let configs =
    match filter with None -> configs | Some f -> List.filter f configs
  in
  rank_space ?cache ?pool m a ~dims configs

let best ?filter m a ~dims ~threads =
  match rank_all ?filter m a ~dims ~threads with
  | [] -> invalid_arg "Advisor.best: empty space"
  | (c, p) :: _ -> (c, p)

(* ---- Fusion-partition ranking ------------------------------------- *)

type partition = {
  inline : string list;
  stages : int;
  time : float;
  stage_times : (string * float) list;
}

(* Predicted wall time of one stage: the extended sweep covers
   [dims + 2*ext] points per dimension, and the model's chip LUP/s for
   the stage's analysis at those extents prices each of them. *)
let stage_time ?cache ~memo m ~dims ~config fp (s : Program.stage) ext =
  let key =
    Expr.to_c ~field_name:(fun i -> s.Program.reads.(i)) s.Program.expr
    ^ "|"
    ^ String.concat "," (List.map string_of_int (Array.to_list ext))
  in
  match Hashtbl.find_opt memo key with
  | Some t -> t
  | None ->
      let edims = Array.mapi (fun d e -> dims.(d) + (2 * e)) ext in
      let a = Analysis.of_spec (Program.stage_spec fp s) in
      let pred =
        match cache with
        | Some cache -> Cache.predict cache m a ~dims:edims ~config
        | None -> Model.predict m a ~dims:edims ~config
      in
      let points =
        float_of_int (Array.fold_left (fun acc d -> acc * d) 1 edims)
      in
      let t = points /. pred.Model.lups_chip in
      Hashtbl.add memo key t;
      t

(* The ranking keeps at most this many partitions: the full 2^12 space
   of the 16-stage hdiff. *)
let partition_limit = 4096

let rank_partitions ?cache m (p : Program.t) ~dims ~config =
  if Array.length dims <> p.Program.rank then
    invalid_arg "Advisor.rank_partitions: dims rank mismatch";
  let memo = Hashtbl.create 64 in
  let inlinable = Program.inlinable p in
  (* Fusion choices never interact across connected components, so the
     per-partition cost is additive over components: score every subset
     of each component's inlinable stages once (2^k model sweeps per
     component), then compose the full product space arithmetically.
     For the 16-stage hdiff that is 4 components x 8 subsets = 32
     scored programs standing for all 4096 partitions. *)
  let per_component =
    List.map
      (fun comp ->
        let in_comp n = List.mem n comp in
        let cand = List.filter in_comp inlinable in
        let n = List.length cand in
        List.init (1 lsl n) (fun mask ->
            let inline = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) cand in
            let fp = Program.fuse p ~inline in
            let hp = Program.halo_plan fp in
            let times =
              Array.to_list fp.Program.stages
              |> List.filter_map (fun (s : Program.stage) ->
                     if in_comp s.name then
                       let ext = List.assoc s.name hp.Program.stage_ext in
                       Some
                         ( s.name,
                           stage_time ?cache ~memo m ~dims ~config fp s ext )
                     else None)
            in
            (inline, times)))
      (Program.components p)
  in
  let combos =
    List.fold_left
      (fun acc opts ->
        List.concat_map
          (fun (inl, ts) ->
            List.map (fun (inl0, ts0) -> (inl0 @ inl, ts0 @ ts)) acc)
          opts)
      [ ([], []) ] per_component
  in
  let scored =
    List.map
      (fun (inline, stage_times) ->
        {
          inline;
          stages = Array.length p.Program.stages - List.length inline;
          time = List.fold_left (fun a (_, t) -> a +. t) 0.0 stage_times;
          stage_times;
        })
      combos
  in
  let sorted =
    List.stable_sort (fun a b -> compare a.time b.time) scored
  in
  List.filteri (fun i _ -> i < partition_limit) sorted

let best_partition ?cache m p ~dims ~config =
  match rank_partitions ?cache m p ~dims ~config with
  | best :: _ -> best
  | [] -> invalid_arg "Advisor.best_partition: program has no stages"
