(* The reference the Offsite ranking is compared against field by field:
   [score] and [evaluate_variants] as they were before a ranking call
   shared its measurements, measuring every kernel of every candidate
   afresh, and [evaluate], [evaluate_mixed] and [rank_methods] composed
   from them the same way. Built on public calls only, so an agreement
   checks the measurement table rather than restating it. *)

module Offsite = Yasksite_offsite.Offsite
module Variant = Yasksite_offsite.Variant
module Analysis = Yasksite_stencil.Analysis
module Config = Yasksite_ecm.Config
module Model = Yasksite_ecm.Model
module Cache = Yasksite_ecm.Cache
module Measure = Yasksite_engine.Measure
module Pool = Yasksite_util.Pool
module Pde = Yasksite_ode.Pde
module Tableau = Yasksite_ode.Tableau

open Offsite

let best_static_config = Offsite.best_static_config

let score ?(cache = Cache.create ()) ?store ?pool m (pde : Pde.t)
    (variant : Variant.t) ~threads ~tuned =
  let dims = pde.Pde.dims in
  let points = float_of_int (Array.fold_left ( * ) 1 dims) in
  let per_kernel =
    List.map
      (fun (k : Variant.kernel) ->
        let info = Analysis.of_spec k.Variant.spec in
        let config =
          if tuned then
            best_static_config ~cache ?store ?pool m info ~dims ~threads
          else Config.v ~threads ()
        in
        let prediction = Cache.predict cache m info ~dims ~config in
        let measured = Measure.stencil_sweep m k.Variant.spec ~dims ~config in
        ( k.Variant.label,
          config,
          points /. prediction.Model.lups_chip,
          points /. measured.Measure.lups_chip ))
      variant.Variant.kernels
  in
  { variant;
    tuned;
    configs = List.map (fun (l, c, _, _) -> (l, c)) per_kernel;
    predicted_step_seconds =
      List.fold_left (fun acc (_, _, p, _) -> acc +. p) 0.0 per_kernel;
    measured_step_seconds =
      List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 per_kernel }

let evaluate_variants ?(cache = Cache.create ()) ?store ?pool m pde variants
    ~threads =
  let jobs =
    List.concat_map (fun v -> [ (v, false); (v, true) ]) variants
  in
  let score_one (v, tuned) =
    score ~cache ?store ?pool m pde v ~threads ~tuned
  in
  let candidates =
    (* Scoring is deterministic per candidate (each measurement owns its
       address space), so the parallel map equals the sequential one. *)
    match pool with
    | Some pool when Pool.size pool > 1 ->
        Pool.parallel_map ~chunk:1 pool jobs ~f:score_one
    | _ -> List.map score_one jobs
  in
  List.sort
    (fun a b -> compare a.predicted_step_seconds b.predicted_step_seconds)
    candidates

let evaluate_mixed m pde tab ~h ~threads =
  evaluate_variants m pde (Variant.all_mixed tab pde ~h) ~threads

let evaluate ?cache ?store ?pool m pde tab ~h ~threads =
  evaluate_variants ?cache ?store ?pool m pde (Variant.all tab pde ~h) ~threads

let rank_methods m (pde : Pde.t) tableaux ~threads =
  let rho = spectral_radius pde in
  let choices =
    List.map
      (fun (tab : Tableau.t) ->
        (* Step just inside the stability boundary. *)
        let h_stable = 0.9 *. Tableau.real_stability_interval tab /. rho in
        let candidates =
          evaluate_variants m pde (Variant.all tab pde ~h:h_stable) ~threads
        in
        let candidate = List.hd candidates in
        let steps_per_unit = 1.0 /. h_stable in
        { tableau = tab;
          candidate;
          h_stable;
          predicted_time_per_unit =
            candidate.predicted_step_seconds *. steps_per_unit;
          measured_time_per_unit =
            candidate.measured_step_seconds *. steps_per_unit })
      tableaux
  in
  List.sort
    (fun a b -> compare a.predicted_time_per_unit b.predicted_time_per_unit)
    choices
