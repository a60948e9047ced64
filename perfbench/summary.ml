(* Summaries of per-op samples. An empty sample summarizes to 0, the
   value a workload reports for a layer it does not run. *)

module Stats = Yasksite_util.Stats

let median a = if Array.length a = 0 then 0.0 else Stats.median a

(* Linear interpolation between order statistics. It has ten samples
   beyond it only when there are at least 100. *)
let p90 a = if Array.length a = 0 then 0.0 else Stats.percentile a ~p:90.0

let medians rows =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) rows) in
  List.map
    (fun k ->
      ( k,
        median
          (Array.of_list
             (List.map (fun r -> Option.value (List.assoc_opt k r) ~default:0.0) rows)) ))
    keys
