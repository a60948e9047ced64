module Machine = Yasksite_arch.Machine
module Suite = Yasksite_stencil.Suite
module Config = Yasksite_ecm.Config
module Tuner = Yasksite_tuner.Tuner

let machine = Machine.test_chip

let spec = Suite.resolve_defaults Suite.heat_2d_5pt

let dims = [| 48; 48 |]

let test_analytic () =
  let r = Tuner.tune_analytic machine spec ~dims ~threads:2 in
  Alcotest.(check int) "single validation run" 1 r.Tuner.kernel_runs;
  Alcotest.(check bool) "several model evals" true
    (r.Tuner.model_evaluations > 4);
  Alcotest.(check bool) "has prediction" true (r.Tuner.predicted_lups <> None);
  Alcotest.(check bool) "measured positive" true (r.Tuner.measured_lups > 0.0);
  Alcotest.(check int) "threads respected" 2 r.Tuner.chosen.Config.threads

let test_empirical () =
  let space =
    [ Config.v ~threads:2 (); Config.v ~threads:2 ~block:[| 0; 16 |] () ]
  in
  let r = Tuner.tune_empirical ~space machine spec ~dims ~threads:2 in
  Alcotest.(check int) "ran whole space" 2 r.Tuner.kernel_runs;
  Alcotest.(check bool) "no model evals" true (r.Tuner.model_evaluations = 0);
  Alcotest.(check bool) "picked from space" true
    (List.exists (fun c -> Config.equal c r.Tuner.chosen) space)

let test_empirical_picks_best () =
  (* The chosen config's measurement must be the max over the space. *)
  let space =
    [ Config.v ~threads:1 ();
      Config.v ~threads:1 ~block:[| 0; 8 |] ();
      Config.v ~threads:1 ~fold:[| 1; 4 |] () ]
  in
  let r = Tuner.tune_empirical ~space machine spec ~dims ~threads:1 in
  List.iter
    (fun config ->
      let m =
        Yasksite_engine.Measure.stencil_sweep machine spec ~dims ~config
      in
      Alcotest.(check bool) "chosen is at least this one" true
        (r.Tuner.measured_lups >= m.Yasksite_engine.Measure.lups_chip -. 1.0))
    space

let test_compare () =
  let space =
    [ Config.v ~threads:2 ();
      Config.v ~threads:2 ~block:[| 0; 16 |] ();
      Config.v ~threads:2 ~block:[| 0; 32 |] () ]
  in
  let c = Tuner.compare_strategies ~space machine spec ~dims ~threads:2 in
  Alcotest.(check (float 1e-9)) "cost ratio" 3.0 c.Tuner.cost_ratio;
  Alcotest.(check bool) "quality sane" true
    (c.Tuner.quality > 0.3 && c.Tuner.quality < 3.0)

let base_suite =
  [ Alcotest.test_case "analytic tuner" `Quick test_analytic;
    Alcotest.test_case "empirical tuner" `Quick test_empirical;
    Alcotest.test_case "empirical picks best" `Quick test_empirical_picks_best;
    Alcotest.test_case "compare strategies" `Quick test_compare ]

(* ------------------------------------------------------------------ *)
(* Resilience: faults, budgets, checkpoints                           *)

module Plan = Yasksite_faults.Plan
module Policy = Yasksite_faults.Policy
module Clock = Yasksite_util.Clock

let small_space =
  [ Config.v ~threads:2 ();
    Config.v ~threads:2 ~block:[| 0; 16 |] ();
    Config.v ~threads:2 ~block:[| 0; 32 |] () ]

let test_zero_fault_identity () =
  (* Acceptance: a benign fault plan must be behaviourally invisible —
     same chosen config, same kernel-run count, bit-equal measurement. *)
  let baseline = Tuner.tune_empirical ~space:small_space machine spec ~dims ~threads:2 in
  let resilient =
    Tuner.tune_empirical ~space:small_space
      ~faults:(Plan.v ~seed:999 ~fail_rate:0.0 ~noise_sigma:0.0 ())
      ~policy:Policy.default machine spec ~dims ~threads:2
  in
  Alcotest.(check bool) "same chosen" true
    (Config.equal baseline.Tuner.chosen resilient.Tuner.chosen);
  Alcotest.(check int) "same kernel runs" baseline.Tuner.kernel_runs
    resilient.Tuner.kernel_runs;
  Alcotest.(check (float 0.0)) "bit-equal measurement"
    baseline.Tuner.measured_lups resilient.Tuner.measured_lups;
  Alcotest.(check int) "one attempt per run" resilient.Tuner.kernel_runs
    resilient.Tuner.attempts;
  Alcotest.(check int) "nothing skipped" 0
    (List.length resilient.Tuner.skipped);
  Alcotest.(check bool) "not degraded" false resilient.Tuner.degraded

let test_all_fail_degrades () =
  (* Every run fails: the sweep must complete without raising, skip every
     candidate, and fall back to analytic ranking. *)
  let r =
    Tuner.tune_empirical ~space:small_space
      ~faults:(Plan.v ~seed:1 ~fail_rate:1.0 ())
      machine spec ~dims ~threads:2
  in
  Alcotest.(check int) "no kernel runs" 0 r.Tuner.kernel_runs;
  Alcotest.(check int) "all candidates skipped" (List.length small_space)
    (List.length r.Tuner.skipped);
  List.iter
    (fun s ->
      Alcotest.(check string) "reason" "transient failure" s.Tuner.s_reason;
      Alcotest.(check int) "retried to the cap" 3 s.Tuner.s_attempts)
    r.Tuner.skipped;
  Alcotest.(check bool) "degraded" true r.Tuner.degraded;
  Alcotest.(check bool) "analytic fallback has a prediction" true
    (r.Tuner.predicted_lups <> None);
  Alcotest.(check bool) "picked from space" true
    (List.exists (fun c -> Config.equal c r.Tuner.chosen) small_space)

let test_noisy_survives () =
  (* Noise + outliers + some failures: the sweep completes and still
     picks a member of the space, with more attempts than runs. *)
  let faults =
    Plan.v ~seed:3 ~fail_rate:0.3 ~noise_sigma:0.05 ~outlier_rate:0.2
      ~outlier_factor:5.0 ()
  in
  let policy = Policy.v ~max_attempts:4 ~repeats:3 () in
  let r =
    Tuner.tune_empirical ~space:small_space ~faults ~policy machine spec ~dims
      ~threads:2
  in
  Alcotest.(check bool) "picked from space" true
    (List.exists (fun c -> Config.equal c r.Tuner.chosen) small_space);
  Alcotest.(check bool) "attempts >= runs" true
    (r.Tuner.attempts >= r.Tuner.kernel_runs);
  Alcotest.(check bool) "measured positive" true (r.Tuner.measured_lups > 0.0)

let same_seed_deterministic =
  QCheck.Test.make ~name:"equal fault seeds give identical tuning results"
    ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let faults = Plan.v ~seed ~fail_rate:0.3 ~noise_sigma:0.05 () in
      let policy = Policy.v ~max_attempts:2 ~repeats:2 () in
      let run () =
        Tuner.tune_empirical ~space:small_space ~faults ~policy machine spec
          ~dims ~threads:2
      in
      let a = run () and b = run () in
      Config.equal a.Tuner.chosen b.Tuner.chosen
      && a.Tuner.measured_lups = b.Tuner.measured_lups
      && a.Tuner.attempts = b.Tuner.attempts
      && a.Tuner.kernel_runs = b.Tuner.kernel_runs
      && List.length a.Tuner.skipped = List.length b.Tuner.skipped
      && a.Tuner.degraded = b.Tuner.degraded)

let zero_rate_matches_seed_tuner =
  QCheck.Test.make
    ~name:"fault rate 0 reproduces the fault-free tuner exactly" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let baseline =
        Tuner.tune_empirical ~space:small_space machine spec ~dims ~threads:2
      in
      let r =
        Tuner.tune_empirical ~space:small_space
          ~faults:(Plan.v ~seed ~fail_rate:0.0 ~noise_sigma:0.0 ())
          machine spec ~dims ~threads:2
      in
      Config.equal baseline.Tuner.chosen r.Tuner.chosen
      && baseline.Tuner.measured_lups = r.Tuner.measured_lups
      && baseline.Tuner.kernel_runs = r.Tuner.kernel_runs
      && List.length r.Tuner.skipped = 0
      && not r.Tuner.degraded)

let with_temp_checkpoint f =
  let path = Filename.temp_file "yasksite" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_checkpoint_resume () =
  with_temp_checkpoint @@ fun path ->
  let r1 =
    Tuner.tune_empirical ~space:small_space ~checkpoint:path machine spec ~dims
      ~threads:2
  in
  Alcotest.(check int) "first pass runs everything" (List.length small_space)
    r1.Tuner.kernel_runs;
  (* Resuming a completed sweep re-runs nothing and returns the same
     answer. *)
  let r2 =
    Tuner.tune_empirical ~space:small_space ~checkpoint:path machine spec ~dims
      ~threads:2
  in
  Alcotest.(check int) "resume runs nothing" 0 r2.Tuner.kernel_runs;
  Alcotest.(check bool) "same chosen" true
    (Config.equal r1.Tuner.chosen r2.Tuner.chosen);
  Alcotest.(check (float 0.0)) "same measurement" r1.Tuner.measured_lups
    r2.Tuner.measured_lups;
  (* Drop the last recorded candidate: the resumed sweep re-runs exactly
     that one. *)
  let lines =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
  in
  let kept =
    match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
    | _last :: rest -> List.rev rest
    | [] -> []
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
  let r3 =
    Tuner.tune_empirical ~space:small_space ~checkpoint:path machine spec ~dims
      ~threads:2
  in
  Alcotest.(check int) "truncated resume runs one" 1 r3.Tuner.kernel_runs;
  Alcotest.(check bool) "same chosen after partial resume" true
    (Config.equal r1.Tuner.chosen r3.Tuner.chosen)

let test_checkpoint_key_mismatch () =
  with_temp_checkpoint @@ fun path ->
  let space2 = [ List.hd small_space; List.nth small_space 1 ] in
  let _ =
    Tuner.tune_empirical ~space:small_space ~checkpoint:path machine spec ~dims
      ~threads:2
  in
  (* A different sweep (smaller space) must ignore the stale file. *)
  let r =
    Tuner.tune_empirical ~space:space2 ~checkpoint:path machine spec ~dims
      ~threads:2
  in
  Alcotest.(check int) "stale checkpoint ignored" (List.length space2)
    r.Tuner.kernel_runs

let test_budget_interruption_and_resume () =
  with_temp_checkpoint @@ fun path ->
  let space =
    [ Config.v ~threads:2 ();
      Config.v ~threads:2 ~block:[| 0; 8 |] ();
      Config.v ~threads:2 ~block:[| 0; 16 |] ();
      Config.v ~threads:2 ~block:[| 0; 32 |] () ]
  in
  let full = Tuner.tune_empirical ~space machine spec ~dims ~threads:2 in
  (* A counting clock: every read advances one virtual second, so a tiny
     pass budget cuts the sweep off after the first candidate. *)
  let t = ref 0.0 in
  let clock =
    Clock.of_fun (fun () ->
        t := !t +. 1.0;
        !t)
  in
  let interrupted =
    Tuner.tune_empirical ~space
      ~policy:(Policy.v ~pass_budget_s:6.0 ())
      ~clock ~checkpoint:path machine spec ~dims ~threads:2
  in
  Alcotest.(check bool) "some candidate ran" true
    (interrupted.Tuner.kernel_runs >= 1);
  Alcotest.(check bool) "sweep was cut short" true
    (interrupted.Tuner.kernel_runs < List.length space);
  Alcotest.(check bool) "budget skips reported" true
    (List.exists
       (fun s -> s.Tuner.s_reason = "pass budget exhausted")
       interrupted.Tuner.skipped);
  Alcotest.(check bool) "not degraded by truncation" false
    interrupted.Tuner.degraded;
  (* Resume with an unbounded budget: only the missing candidates run,
     and the final answer matches the uninterrupted sweep. *)
  let resumed =
    Tuner.tune_empirical ~space ~checkpoint:path machine spec ~dims ~threads:2
  in
  Alcotest.(check int) "resume runs only the remainder"
    (List.length space - interrupted.Tuner.kernel_runs)
    resumed.Tuner.kernel_runs;
  Alcotest.(check bool) "same chosen as the full sweep" true
    (Config.equal full.Tuner.chosen resumed.Tuner.chosen);
  Alcotest.(check (float 0.0)) "same measurement as the full sweep"
    full.Tuner.measured_lups resumed.Tuner.measured_lups

let qt = QCheck_alcotest.to_alcotest

let resilience_suite =
  [ Alcotest.test_case "zero-fault identity" `Quick test_zero_fault_identity;
    Alcotest.test_case "all-fail degrades" `Quick test_all_fail_degrades;
    Alcotest.test_case "noisy sweep survives" `Quick test_noisy_survives;
    qt same_seed_deterministic;
    qt zero_rate_matches_seed_tuner;
    Alcotest.test_case "checkpoint resume" `Quick test_checkpoint_resume;
    Alcotest.test_case "checkpoint key mismatch" `Quick
      test_checkpoint_key_mismatch;
    Alcotest.test_case "budget interruption + resume" `Quick
      test_budget_interruption_and_resume ]

let suite = base_suite @ resilience_suite
