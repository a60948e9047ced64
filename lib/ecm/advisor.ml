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

(* The per-ranking memo key of a stage: its read table, its expression
   with constants compared bit for bit, and its extension. Stages with
   one key lower to one plan swept over one extent, so they share one
   predicted time. *)
module Stage_key = struct
  type t = string array * Expr.t * int array

  let equal (reads, expr, ext) (reads', expr', ext') =
    reads = reads' && ext = ext' && Expr.equal expr expr'

  let hash = Hashtbl.hash
end

module Stage_memo = Hashtbl.Make (Stage_key)

(* Predicted wall time of one stage: the extended sweep covers
   [dims + 2*ext] points per dimension, and the model's chip LUP/s for
   the stage's analysis at those extents prices each of them. *)
let stage_time ~predict ~memo ~dims fp (s : Program.stage) ext =
  let key = (s.Program.reads, s.Program.expr, ext) in
  match Stage_memo.find_opt memo key with
  | Some t -> t
  | None ->
      let edims = Array.mapi (fun d e -> dims.(d) + (2 * e)) ext in
      let pred = predict (Analysis.of_spec (Program.stage_spec fp s)) edims in
      let points =
        float_of_int (Array.fold_left (fun acc d -> acc * d) 1 edims)
      in
      let t = points /. pred.Model.lups_chip in
      Stage_memo.add memo key t;
      t

(* One option per subset of a component's inlinable stages, the subset's
   bits in [Program.inlinable] order: the stages it inlines, and the
   predicted time of each stage it keeps, in definition order. The
   component is scored as a program of its own stages: components are
   closed under consumers, so every stage's extension and fused
   expression are the ones it has in the whole program. *)
let component_options ~predict ~memo (p : Program.t) ~dims comp =
  let sub =
    { p with
      Program.stages =
        Array.of_list
          (List.filter
             (fun (s : Program.stage) -> List.mem s.name comp)
             (Array.to_list p.Program.stages)) }
  in
  let cand = Program.inlinable sub in
  Array.init
    (1 lsl List.length cand)
    (fun mask ->
      let inline = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) cand in
      let fp = Program.fuse sub ~inline in
      let hp = Program.halo_plan fp in
      ( inline,
        Array.to_list fp.Program.stages
        |> List.map (fun (s : Program.stage) ->
               let ext = List.assoc s.name hp.Program.stage_ext in
               (s.name, stage_time ~predict ~memo ~dims fp s ext)) ))

(* The ranking keeps at most this many partitions: the full 2^12 space
   of the 16-stage hdiff. *)
let partition_limit = 4096

(* Fusion choices never interact across connected components, so the
   per-partition cost is additive over components: score every subset
   of each component's inlinable stages once, then compose the product
   space arithmetically. For the 16-stage hdiff that is 4 components x
   8 subsets = 32 scored sub-programs standing for all 4096 partitions.
   Partition [i] takes option [i / stride_c mod size_c] of component c,
   where [stride_c] is the product of the sizes of the components
   before c: the first component varies fastest. Its total is the
   running sum of its stage times in component order, so [totals.(i)]
   is the left fold of [( +. )] over its stage-time list, bit for
   bit. *)
let score ?cache m (p : Program.t) ~dims ~config =
  if Array.length dims <> p.Program.rank then
    invalid_arg "Advisor.rank_partitions: dims rank mismatch";
  let lookup =
    match cache with
    | Some cache -> Cache.on_machine cache m
    | None -> fun a ~dims config -> Model.predict m a ~dims ~config
  in
  let predict a dims = lookup a ~dims config in
  let memo = Stage_memo.create 64 in
  let options =
    Array.of_list
      (List.map
         (component_options ~predict ~memo p ~dims)
         (Program.components p))
  in
  let totals =
    Array.fold_left
      (fun prefix opts ->
        let n = Array.length prefix in
        let next = Array.make (n * Array.length opts) 0.0 in
        Array.iteri
          (fun o (_, times) ->
            let secs = Array.of_list (List.map snd times) in
            for j = 0 to n - 1 do
              let t = ref prefix.(j) in
              for k = 0 to Array.length secs - 1 do
                t := !t +. secs.(k)
              done;
              next.((o * n) + j) <- !t
            done)
          opts;
        next)
      [| 0.0 |] options
  in
  (options, totals)

(* The record of partition [i] for each [i] it is applied to. The lists
   of components c+1.. are built once per combination of their options
   and shared, so each record copies only its first component's
   entries. *)
let entries (p : Program.t) options totals =
  let ncomp = Array.length options in
  let shared = Array.init (ncomp + 1) (fun _ -> Hashtbl.create 64) in
  (* The lists of components c.. for their combination [i]. *)
  let rec lists c i =
    if c = ncomp then ([], [])
    else
      let size = Array.length options.(c) in
      let inline, times = options.(c).(i mod size) in
      let inline', times' = shared_lists (c + 1) (i / size) in
      (inline @ inline', times @ times')
  and shared_lists c i =
    match Hashtbl.find_opt shared.(c) i with
    | Some l -> l
    | None ->
        let l = lists c i in
        Hashtbl.add shared.(c) i l;
        l
  in
  let n_stages = Array.length p.Program.stages in
  fun i ->
    let inline, stage_times = lists 0 i in
    { inline;
      stages = n_stages - List.length inline;
      time = totals.(i);
      stage_times }

let rank_partitions ?cache m p ~dims ~config =
  let options, totals = score ?cache m p ~dims ~config in
  (* A stable sort keeps enumeration order among equal totals, as a
     stable sort of the enumerated list would. *)
  let order = Array.init (Array.length totals) Fun.id in
  Array.stable_sort (fun i j -> Float.compare totals.(i) totals.(j)) order;
  let entry = entries p options totals in
  List.init
    (min partition_limit (Array.length order))
    (fun r -> entry order.(r))

let best_partition ?cache m p ~dims ~config =
  let options, totals = score ?cache m p ~dims ~config in
  let best = ref 0 in
  for i = 1 to Array.length totals - 1 do
    if Float.compare totals.(i) totals.(!best) < 0 then best := i
  done;
  entries p options totals !best
