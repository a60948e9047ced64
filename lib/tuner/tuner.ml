module Machine = Yasksite_arch.Machine
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Model = Yasksite_ecm.Model
module Advisor = Yasksite_ecm.Advisor
module Cache = Yasksite_ecm.Cache
module Measure = Yasksite_engine.Measure
module Lint = Yasksite_lint.Lint
module Clock = Yasksite_util.Clock
module Prng = Yasksite_util.Prng
module Pool = Yasksite_util.Pool
module Plan = Yasksite_faults.Plan
module Policy = Yasksite_faults.Policy
module Retry = Yasksite_faults.Retry
module Checkpoint = Yasksite_faults.Checkpoint
module Store = Yasksite_store.Store

type skipped = {
  s_config : Config.t;
  s_reason : string;
  s_attempts : int;
}

type result = {
  chosen : Config.t;
  predicted_lups : float option;
  measured_lups : float;
  model_evaluations : int;
  kernel_runs : int;
  attempts : int;
  skipped : skipped list;
  pruned : int;
  degraded : bool;
  wall_seconds : float;
}

let tune_analytic m spec ~dims ~threads =
  let t0 = Clock.now Clock.system in
  Lint.gate ~context:"Tuner.tune_analytic" (Lint.Kernel.spec spec);
  let info = Analysis.of_spec spec in
  (* The lowered plan is what every measurement below executes; a plan
     failing the YS5xx dataflow verifier (malformed body, counts
     disagreeing with the analysis the model is fed) would poison every
     prediction, so it is refused before any evaluation. Bounds (YS501)
     need concrete grids and are checked by Measure's sweeps. *)
  let plan = Lower.lower spec in
  Lint.gate ~context:"Tuner.tune_analytic"
    (Lint.Plan.structure plan @ Lint.Plan.counts_agree plan info);
  (* Schedule-legality pruning happens before any model evaluation:
     illegal candidates are never scored, and their count is reported. *)
  let full = Advisor.space m ~dims ~threads ~rank:spec.Spec.rank in
  let ranked =
    Advisor.rank_all ~filter:(Lint.Schedule.legal info ~dims) m info ~dims
      ~threads
  in
  let pruned = List.length full - List.length ranked in
  if ranked = [] && full <> [] then
    Lint.gate ~context:"Tuner.tune_analytic"
      (Lint.Schedule.space info ~dims full);
  let chosen, prediction =
    match ranked with
    | [] -> invalid_arg "Tuner.tune_analytic: empty space"
    | (c, p) :: _ -> (c, p)
  in
  let meas = Measure.stencil_sweep m spec ~dims ~config:chosen in
  { chosen;
    predicted_lups = Some prediction.Model.lups_chip;
    measured_lups = meas.Measure.lups_chip;
    model_evaluations = List.length ranked;
    kernel_runs = 1;
    attempts = 1;
    skipped = [];
    pruned;
    degraded = false;
    wall_seconds = Clock.now Clock.system -. t0 }

(* Checkpoints bind to the full identity of a sweep: a file written for a
   different machine, kernel, grid, space or fault seed loads as empty.
   The kernel is identified by its plan fingerprint (content-addressed:
   resumes survive renames but miss on any behavioural change to the
   expression). [checkpoint_scheme] names the fault/jitter-stream and
   key derivation; it is bumped whenever either changes (scheme 2:
   per-candidate indexed streams; scheme 3: plan-fingerprint kernel
   identity) so checkpoints written under an older regime miss instead
   of silently mixing. *)
let checkpoint_scheme = 3

let checkpoint_key m spec ~dims ~threads ~space ~(faults : Plan.t) =
  let dims_s =
    String.concat "x" (Array.to_list (Array.map string_of_int dims))
  in
  let space_s = String.concat ";" (List.map Config.describe space) in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "scheme=%d|%s|%s|%s|t=%d|seed=%d|%s" checkpoint_scheme
          m.Machine.name (Lower.fingerprint spec) dims_s threads
          faults.Plan.seed space_s))

(* Jitter streams are derived from a seed decorrelated from the fault
   seed so backoff-delay sampling never perturbs fault outcomes. *)
let jitter_seed_salt = 0x5DEECE66

(* Checkpoints persisted through the store reuse the file format
   verbatim (render/parse) under this namespace; the entry key is the
   same scheme-3 sweep identity a checkpoint file carries in its
   header, so the store path inherits every stale-key guarantee. *)
let checkpoint_ns = "ckpt-v1"

let tune_empirical ?space ?(faults = Plan.none) ?(policy = Policy.default)
    ?(clock = Clock.system) ?checkpoint ?store ?pool ?(cache = Cache.create ())
    ?(sanitize = false) m spec ~dims ~threads =
  let t0 = Clock.now clock in
  Lint.gate ~context:"Tuner.tune_empirical" (Lint.Kernel.spec spec);
  let info = Analysis.of_spec spec in
  (* Same YS5xx plan gate as [tune_analytic]: refuse a malformed or
     miscounted kernel plan before any candidate is measured. *)
  let plan_gate = Lower.lower spec in
  Lint.gate ~context:"Tuner.tune_empirical"
    (Lint.Plan.structure plan_gate @ Lint.Plan.counts_agree plan_gate info);
  (* User-supplied spaces are gated; advisor-generated candidates are the
     model's own business (it ranks bad ones down rather than refusing). *)
  (match space with
  | Some s ->
      Lint.gate ~context:"Tuner.tune_empirical" (Lint.Config.space m info ~dims s)
  | None -> ());
  let space =
    match space with
    | Some s -> s
    | None ->
        let rank = spec.Spec.rank in
        Advisor.space m ~dims ~threads ~rank
  in
  (* Schedule-legality pruning before any pool execution: candidates the
     analyzer refutes are never measured. A space with no legal candidate
     at all gates with the offending YS4xx findings. *)
  let full_space = space in
  let space = List.filter (Lint.Schedule.legal info ~dims) full_space in
  let pruned = List.length full_space - List.length space in
  if space = [] && full_space <> [] then
    Lint.gate ~context:"Tuner.tune_empirical"
      (Lint.Schedule.space info ~dims full_space);
  if space = [] then invalid_arg "Tuner.tune_empirical: empty space";
  (* Virtual time: the injected clock plus every charged backoff delay
     — budgets see what a real sweep would pay without the harness
     actually sleeping. *)
  let charged = ref 0.0 in
  let vnow () = Clock.now clock +. !charged in
  let sleep d = charged := !charged +. d in
  let deadline = t0 +. policy.Policy.pass_budget_s in
  (* Per-candidate fault and jitter streams, derived in O(1) from the
     seeds by candidate index: candidate [i] draws the same outcomes
     whether the sweep runs candidates in order or spread over domains,
     which is what makes parallel tuning bit-identical to sequential. *)
  let injector_at idx = Plan.injector_at faults ~index:idx in
  let jitter_at idx =
    Prng.create_indexed ~seed:(faults.Plan.seed lxor jitter_seed_salt)
      ~index:idx
  in
  let key =
    lazy (checkpoint_key m spec ~dims ~threads ~space ~faults)
  in
  (* Persistence backend: an explicit [checkpoint] file wins; otherwise
     a [store] keeps the sweep resumable under the same scheme-3 key.
     Both speak the Checkpoint text format, so a resumed sweep cannot
     tell them apart. *)
  let ckpt_load, ckpt_save =
    match (checkpoint, store) with
    | Some path, _ ->
        ( (fun k -> Checkpoint.load ~path ~key:k),
          Some (fun k es -> Checkpoint.save ~path ~key:k es) )
    | None, Some s ->
        ( (fun k ->
            match Store.get s ~ns:checkpoint_ns ~key:k with
            | None -> []
            | Some payload -> Checkpoint.parse ~key:k payload),
          Some
            (fun k es ->
              Store.put s ~ns:checkpoint_ns ~key:k (Checkpoint.render ~key:k es))
        )
    | None, None -> ((fun _ -> []), None)
  in
  let entries = ref (ckpt_load (Lazy.force key)) in
  let record idx e =
    match ckpt_save with
    | None -> ()
    | Some save ->
        entries := !entries @ [ (idx, e) ];
        save (Lazy.force key) !entries
  in
  let best = ref None in
  let measured_at = Hashtbl.create 16 in
  let runs = ref 0 in
  let attempts_total = ref 0 in
  let skipped = ref [] in
  let visited = ref 0 in
  let exhausted = ref 0 in
  let out_of_budget = ref false in
  let consider idx config lups =
    Hashtbl.replace measured_at idx lups;
    match !best with
    | Some (_, best_lups) when best_lups >= lups -> ()
    | _ -> best := Some (config, lups)
  in
  (* Evaluate one candidate under the given virtual-time regime: run
     [policy.repeats] retried measurements drawing faults and backoff
     jitter from the candidate's own streams. Returns the surviving
     samples (oldest first), attempts spent, successful runs, and the
     give-up reason if the candidate died. *)
  let run_candidate ~vnow ~sleep ~deadline idx config =
    let inj = injector_at idx in
    let jitter_rng = jitter_at idx in
    let measure_once () =
      match Plan.draw inj with
      | Plan.Transient_failure -> Error "transient failure"
      | Plan.Run factor ->
          let meas = Measure.stencil_sweep ~sanitize m spec ~dims ~config in
          Ok (meas.Measure.lups_chip /. factor)
    in
    let samples = ref [] in
    let cand_attempts = ref 0 in
    let cand_runs = ref 0 in
    let gave_up = ref None in
    (try
       for _ = 1 to policy.Policy.repeats do
         match
           Retry.run ~policy ~rng:jitter_rng ~now:vnow ~sleep ~deadline
             measure_once
         with
         | Retry.Success (lups, a) ->
             cand_attempts := !cand_attempts + a;
             incr cand_runs;
             samples := lups :: !samples
         | Retry.Gave_up { reason; attempts = a } ->
             cand_attempts := !cand_attempts + a;
             gave_up := Some reason;
             raise Exit
       done
     with Exit -> ());
    (Array.of_list (List.rev !samples), !cand_attempts, !cand_runs, !gave_up)
  in
  (* Account one evaluated candidate into the sweep's global state, in
     candidate order (both the sequential loop and the parallel replay
     call this with increasing [idx]). *)
  let account idx config (samples, cand_attempts, cand_runs, gave_up) =
    runs := !runs + cand_runs;
    attempts_total := !attempts_total + cand_attempts;
    match (samples, gave_up) with
    | [||], reason ->
        let reason = Option.value reason ~default:"no samples" in
        if reason = "pass budget exhausted" then begin
          (* The sweep ran out of wall budget mid-candidate: the
             candidate is truncated, not dead. Keep it out of the
             checkpoint (a resumed sweep retries it) and out of the
             failure fraction. *)
          out_of_budget := true;
          decr visited;
          skipped :=
            { s_config = config; s_reason = reason;
              s_attempts = cand_attempts }
            :: !skipped
        end
        else begin
          incr exhausted;
          skipped :=
            { s_config = config; s_reason = reason;
              s_attempts = cand_attempts }
            :: !skipped;
          record idx (Checkpoint.Skipped { reason; attempts = cand_attempts })
        end
    | samples, _ ->
        let lups = Policy.robust_combine samples in
        consider idx config lups;
        record idx
          (Checkpoint.Done
             { lups; runs = Array.length samples; attempts = cand_attempts })
  in
  let parallel_width =
    match pool with Some p -> Pool.size p | None -> 1
  in
  (* Candidate evaluations computed ahead of the accounting replay by
     the parallel phase; [None] where the sequential path (or the
     checkpoint) makes evaluation unnecessary. *)
  let precomputed =
    match pool with
    | Some pool when parallel_width > 1 ->
        (* Phase A: evaluate every not-yet-checkpointed candidate on the
           pool. The pass deadline is enforced at candidate granularity:
           before starting a candidate, the real clock is checked
           against the deadline (charged virtual time is only summed in
           the replay below, so the parallel check sees wall time only)
           and expired candidates are left unevaluated; the replay turns
           the first unevaluated candidate and everything after it into
           budget skips. A candidate that has already started runs to
           completion with its own candidate-local virtual clock — a
           sweep whose budget expires mid-candidate truncates that
           candidate sequentially but completes it in parallel, the one
           divergence from a budget-bound sequential sweep. With
           non-binding budgets the two paths are bit-identical. *)
        let cands = Array.of_list space in
        let results = Array.make (Array.length cands) None in
        let todo =
          List.filter
            (fun idx -> List.assoc_opt idx !entries = None)
            (List.init (Array.length cands) Fun.id)
        in
        let todo = Array.of_list todo in
        Pool.parallel_for ~chunk:1 pool ~n:(Array.length todo) (fun i ->
            let idx = todo.(i) in
            if Clock.now clock <= deadline then begin
              let local = ref 0.0 in
              let vnow () = Clock.now clock +. !local in
              let sleep d = local := !local +. d in
              let r =
                run_candidate ~vnow ~sleep ~deadline:infinity idx cands.(idx)
              in
              results.(idx) <- Some (r, !local)
            end);
        Some results
    | _ -> None
  in
  (* Phase B (or the whole sweep when sequential): walk candidates in
     order, applying checkpoint reuse, the pass deadline, and global
     accounting deterministically. *)
  List.iteri
    (fun idx config ->
      match List.assoc_opt idx !entries with
      | Some (Checkpoint.Done { lups; _ }) ->
          (* Completed by a previous pass: reuse without re-running. *)
          incr visited;
          consider idx config lups
      | Some (Checkpoint.Skipped { reason; attempts }) ->
          incr visited;
          incr exhausted;
          skipped :=
            { s_config = config; s_reason = reason; s_attempts = attempts }
            :: !skipped
      | None ->
          (* Sequentially the deadline is checked (in virtual time)
             before each candidate runs. In parallel the check already
             happened at the candidate's Phase A start — a candidate
             left unevaluated there means the deadline expired before
             it could begin, so it and every later candidate become
             budget skips; re-checking the clock here would discard
             results whose measurement cost was already paid. *)
          let budget_hit =
            !out_of_budget
            ||
            match precomputed with
            | Some results -> Option.is_none results.(idx)
            | None -> vnow () > deadline
          in
          if budget_hit then begin
            out_of_budget := true;
            skipped :=
              { s_config = config; s_reason = "pass budget exhausted";
                s_attempts = 0 }
              :: !skipped
          end
          else begin
            incr visited;
            match precomputed with
            | Some results ->
                let r, local_charged =
                  match results.(idx) with
                  | Some r -> r
                  | None -> assert false
                in
                charged := !charged +. local_charged;
                account idx config r
            | None ->
                account idx config
                  (run_candidate ~vnow ~sleep ~deadline idx config)
          end)
    space;
  let fail_fraction =
    if !visited = 0 then 1.0
    else float_of_int !exhausted /. float_of_int !visited
  in
  let degraded =
    !best = None || fail_fraction > Policy.degrade_threshold
  in
  if not degraded then begin
    let chosen, measured_lups =
      match !best with Some cl -> cl | None -> assert false
    in
    { chosen;
      predicted_lups = None;
      measured_lups;
      model_evaluations = 0;
      kernel_runs = !runs;
      attempts = !attempts_total;
      skipped = List.rev !skipped;
      pruned;
      degraded = false;
      wall_seconds = vnow () -. t0 }
  end
  else begin
    (* Graceful degradation: too many candidates died empirically, so
       fall back to the analytic ranking of the same space (the paper's
       point — the model needs no runs at all). *)
    let lookup = Cache.predictor cache m info ~dims in
    let predict c = (lookup c).Model.lups_chip in
    let lups =
      (* Pure model, so the parallel map equals the sequential one. *)
      match pool with
      | Some pool when Pool.size pool > 1 ->
          Pool.parallel_map pool space ~f:predict
      | _ -> List.map predict space
    in
    let scored = List.mapi (fun idx (c, p) -> (idx, c, p)) (List.combine space lups) in
    let best_idx, chosen, predicted =
      List.fold_left
        (fun (bi, bc, bp) (i, c, p) ->
          if p > bp then (i, c, p) else (bi, bc, bp))
        (List.hd scored) (List.tl scored)
    in
    let measured_lups =
      match Hashtbl.find_opt measured_at best_idx with
      | Some l -> l
      | None -> predicted
    in
    { chosen;
      predicted_lups = Some predicted;
      measured_lups;
      model_evaluations = List.length space;
      kernel_runs = !runs;
      attempts = !attempts_total;
      skipped = List.rev !skipped;
      pruned;
      degraded = true;
      wall_seconds = vnow () -. t0 }
  end

type comparison = {
  analytic : result;
  empirical : result;
  cost_ratio : float;
  wall_ratio : float;
  quality : float;
}

let compare_strategies ?space m spec ~dims ~threads =
  let analytic = tune_analytic m spec ~dims ~threads in
  let empirical = tune_empirical ?space m spec ~dims ~threads in
  { analytic;
    empirical;
    cost_ratio =
      float_of_int empirical.kernel_runs /. float_of_int analytic.kernel_runs;
    wall_ratio = empirical.wall_seconds /. max 1e-9 analytic.wall_seconds;
    quality = analytic.measured_lups /. empirical.measured_lups }
