(* The reference the fusion-partition ranking is compared against bit
   for bit: [stage_time] and [rank_partitions] as they were before
   components were scored on their own sub-programs and composed over
   arrays. Every mask fuses and halo-plans the whole program, the memo
   key is the stage's printed expression, and all partitions are built
   as lists and sorted with [List.stable_sort]. It calls the library's
   [Program], [Model] and [Model_cache] and nothing of [Advisor], so an
   agreement checks the composition rather than restating it. *)

module Analysis = Yasksite_stencil.Analysis
module Program = Yasksite_stencil.Program
module Expr = Yasksite_stencil.Expr
module Model = Yasksite_ecm.Model
module Cache = Yasksite_ecm.Cache

type partition = Yasksite_ecm.Advisor.partition = {
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
