(* Domain-parallel execution: pool semantics, sweep partitioning,
   tuner pool-invariance, ECM memoization and the Welford statistics. *)
module Pool = Yasksite_util.Pool
module Prng = Yasksite_util.Prng
module Stats = Yasksite_util.Stats
module Machine = Yasksite_arch.Machine
module Grid = Yasksite_grid.Grid
module Suite = Yasksite_stencil.Suite
module Analysis = Yasksite_stencil.Analysis
module Config = Yasksite_ecm.Config
module Cache = Yasksite_ecm.Cache
module Model = Yasksite_ecm.Model
module Hierarchy = Yasksite_cachesim.Hierarchy
module Sweep = Yasksite_engine.Sweep
module Tuner = Yasksite_tuner.Tuner
module Plan = Yasksite_faults.Plan
module Policy = Yasksite_faults.Policy
module Clock = Yasksite_util.Clock

let machine = Machine.test_chip

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Pool *)

let prop_parallel_map =
  QCheck.Test.make ~name:"parallel_map equals List.map" ~count:50
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (domains, l) ->
      Pool.with_pool ~domains (fun pool ->
          let f x = (x * x) - (3 * x) + 7 in
          Pool.parallel_map pool l ~f = List.map f l))

let prop_parallel_for_covers =
  QCheck.Test.make ~name:"parallel_for covers each index once" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 500))
    (fun (domains, n) ->
      Pool.with_pool ~domains (fun pool ->
          let marks = Array.make (max n 1) 0 in
          Pool.parallel_for pool ~n (fun i -> marks.(i) <- marks.(i) + 1);
          Array.for_all (fun c -> c = 1) (Array.sub marks 0 n)))

let test_pool_exception () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  (match
     Pool.parallel_for pool ~n:64 (fun i ->
         if i = 17 then failwith "boom17")
   with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "first failure" "boom17" m);
  (* The pool survives the exception. *)
  let r = Pool.parallel_map pool [ 1; 2; 3 ] ~f:succ in
  Alcotest.(check (list int)) "pool usable after raise" [ 2; 3; 4 ] r

let test_nested_parallel () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  let sums =
    Pool.parallel_map pool [ 10; 20; 30; 40 ] ~f:(fun n ->
        (* A nested parallel call from inside a job must not deadlock. *)
        let acc = Atomic.make 0 in
        Pool.parallel_for pool ~n (fun i -> ignore (Atomic.fetch_and_add acc i));
        Atomic.get acc)
  in
  Alcotest.(check (list int))
    "nested sums" [ 45; 190; 435; 780 ] sums

let test_nested_from_caller () =
  (* The submitting domain runs its own share of every job; nested
     parallel sections it reaches there must run inline exactly like on
     a worker. Repeating a small nested map many times makes the caller
     claim nested-section elements on essentially every iteration, so a
     regression (the caller re-entering the pool mid-job) corrupts the
     job state and fails fast. *)
  Pool.with_pool ~domains:2 @@ fun pool ->
  let l = List.init 8 Fun.id in
  let inner = List.init 12 Fun.id in
  let expect = List.map (fun x -> x * x) inner in
  for _ = 1 to 50 do
    let ok =
      Pool.parallel_map ~chunk:1 pool l ~f:(fun _ ->
          Pool.parallel_map pool inner ~f:(fun x -> x * x) = expect)
    in
    Alcotest.(check bool) "nested maps correct" true (List.for_all Fun.id ok)
  done

let test_concurrent_submitters () =
  (* Two distinct domains issuing jobs on the same pool: submissions are
     serialised, so both see correct results. *)
  Pool.with_pool ~domains:3 @@ fun pool ->
  let l = List.init 200 Fun.id in
  let expect = List.map succ l in
  let rounds = 20 in
  let submit () = List.init rounds (fun _ -> Pool.parallel_map pool l ~f:succ) in
  let other = Domain.spawn submit in
  let mine = submit () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "caller's jobs correct" true
    (List.for_all (( = ) expect) mine);
  Alcotest.(check bool) "second submitter's jobs correct" true
    (List.for_all (( = ) expect) theirs)

(* ------------------------------------------------------------------ *)
(* Sweep partitioning *)

let sweep_setup config =
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = [| 48; 48 |] in
  let make () =
    let rng = Prng.create ~seed:11 in
    let space = Grid.fresh_space () in
    let fresh () =
      let g = Grid.create ~space ~halo ~dims () in
      Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
      Grid.halo_dirichlet g 0.0;
      g
    in
    let inputs = Array.init spec.Yasksite_stencil.Spec.n_fields (fun _ -> fresh ()) in
    (inputs, fresh ())
  in
  (spec, config, make)

let test_parallel_sweep_untraced () =
  let spec, config, make = sweep_setup (Config.v ~block:[| 0; 8 |] ()) in
  let inputs_s, out_s = make () in
  let stats_s = Sweep.run ~config spec ~inputs:inputs_s ~output:out_s in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let inputs_p, out_p = make () in
  let stats_p = Sweep.run ~pool ~config spec ~inputs:inputs_p ~output:out_p in
  Alcotest.(check (float 0.0)) "outputs bit-identical" 0.0
    (Grid.max_abs_diff out_s out_p);
  Alcotest.(check int) "points" stats_s.Sweep.points stats_p.Sweep.points;
  Alcotest.(check int) "vec units" stats_s.Sweep.vec_units
    stats_p.Sweep.vec_units;
  Alcotest.(check int) "rows" stats_s.Sweep.rows stats_p.Sweep.rows;
  Alcotest.(check int) "blocks" stats_s.Sweep.blocks stats_p.Sweep.blocks

let counters =
  Alcotest.testable
    (fun ppf (c : Hierarchy.counters) ->
      let ints a =
        String.concat "/" (Array.to_list (Array.map string_of_int a))
      in
      Format.fprintf ppf
        "accesses %d (%d loads, %d stores), hits %s, misses %s, \
         writebacks %s, memory %d loads %d writebacks, nt %d stores %d lines"
        c.accesses c.loads c.stores (ints c.hits) (ints c.misses)
        (ints c.writebacks) c.mem_loads c.mem_writebacks c.nt_stores
        c.nt_lines)
    ( = )

let test_parallel_sweep_traced () =
  (* A traced sweep given a pool runs on one domain, so every counter of
     the hierarchy, per level, is the sequential sweep's. *)
  let spec, config, make = sweep_setup (Config.v ~block:[| 0; 8 |] ()) in
  let inputs_s, out_s = make () in
  let trace_s = Hierarchy.create ~active_cores:1 machine in
  let stats_s =
    Sweep.run ~trace:trace_s ~config spec ~inputs:inputs_s ~output:out_s
  in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let inputs_p, out_p = make () in
  let trace_p = Hierarchy.create ~active_cores:1 machine in
  let stats_p =
    Sweep.run ~pool ~trace:trace_p ~config spec ~inputs:inputs_p ~output:out_p
  in
  Alcotest.(check (float 0.0)) "traced outputs bit-identical" 0.0
    (Grid.max_abs_diff out_s out_p);
  Alcotest.(check int) "stats equal sequential" stats_s.Sweep.points
    stats_p.Sweep.points;
  Alcotest.(check int) "vec units equal sequential" stats_s.Sweep.vec_units
    stats_p.Sweep.vec_units;
  Alcotest.check counters "counters equal sequential"
    (Hierarchy.counters trace_s) (Hierarchy.counters trace_p)

let test_parallel_sweep_sanitized () =
  (* The shadow-memory sanitizer observes every read and write of the
     partitioned sweep without perturbing it: outputs stay bit-identical
     to the sequential run and a legal schedule raises no trap. *)
  let module Sanitizer = Yasksite_engine.Sanitizer in
  let spec, config, make = sweep_setup (Config.v ~block:[| 0; 8 |] ()) in
  let inputs_s, out_s = make () in
  let _ = Sweep.run ~config spec ~inputs:inputs_s ~output:out_s in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let inputs_p, out_p = make () in
  let san = Sanitizer.create () in
  let _ =
    Sweep.run ~pool ~sanitize:san ~config spec ~inputs:inputs_p ~output:out_p
  in
  Alcotest.(check (float 0.0)) "sanitized outputs bit-identical" 0.0
    (Grid.max_abs_diff out_s out_p)

let test_unblocked_runs_sequentially () =
  (* One block column: the pool must not change anything at all. *)
  let spec, config, make = sweep_setup (Config.v ()) in
  let inputs_s, out_s = make () in
  let trace_s = Hierarchy.create ~active_cores:1 machine in
  let _ = Sweep.run ~trace:trace_s ~config spec ~inputs:inputs_s ~output:out_s in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let inputs_p, out_p = make () in
  let trace_p = Hierarchy.create ~active_cores:1 machine in
  let _ =
    Sweep.run ~pool ~trace:trace_p ~config spec ~inputs:inputs_p ~output:out_p
  in
  Alcotest.(check (float 0.0)) "outputs" 0.0 (Grid.max_abs_diff out_s out_p);
  Alcotest.(check int) "identical trace"
    ((Hierarchy.counters trace_s).Hierarchy.accesses)
    ((Hierarchy.counters trace_p).Hierarchy.accesses)

(* ------------------------------------------------------------------ *)
(* Tuner pool-invariance *)

let spec2d = Suite.resolve_defaults Suite.heat_2d_5pt

let tuner_results ?(sanitize = false) ~domains () =
  let faults = Plan.v ~seed:97 ~fail_rate:0.2 ~noise_sigma:0.05 () in
  let policy = Policy.v ~max_attempts:3 ~repeats:2 () in
  let dims = [| 48; 48 |] in
  if domains = 1 then
    Tuner.tune_empirical ~faults ~policy ~sanitize machine spec2d ~dims
      ~threads:2
  else
    Pool.with_pool ~domains (fun pool ->
        Tuner.tune_empirical ~faults ~policy ~sanitize ~pool machine spec2d
          ~dims ~threads:2)

let test_tuner_pool_invariant () =
  let seq = tuner_results ~domains:1 () in
  let par = tuner_results ~domains:4 () in
  Alcotest.(check bool) "same chosen config" true
    (Config.equal seq.Tuner.chosen par.Tuner.chosen);
  Alcotest.(check (float 0.0)) "measured LUP/s bit-equal"
    seq.Tuner.measured_lups par.Tuner.measured_lups;
  Alcotest.(check int) "same attempts" seq.Tuner.attempts par.Tuner.attempts;
  Alcotest.(check int) "same kernel runs" seq.Tuner.kernel_runs
    par.Tuner.kernel_runs;
  Alcotest.(check int) "same skip list"
    (List.length seq.Tuner.skipped)
    (List.length par.Tuner.skipped);
  List.iter2
    (fun (a : Tuner.skipped) (b : Tuner.skipped) ->
      Alcotest.(check bool) "same skipped config" true
        (Config.equal a.Tuner.s_config b.Tuner.s_config);
      Alcotest.(check int) "same skip attempts" a.Tuner.s_attempts
        b.Tuner.s_attempts)
    seq.Tuner.skipped par.Tuner.skipped

let test_tuner_pool_invariant_sanitized () =
  (* Pool-invariance must survive the sanitizer: shadow bookkeeping is
     per-measurement state, so sanitized tuning picks the same config
     at the same measured rate as unsanitized tuning, pool or not. *)
  let plain = tuner_results ~domains:1 () in
  let seq = tuner_results ~sanitize:true ~domains:1 () in
  let par = tuner_results ~sanitize:true ~domains:4 () in
  Alcotest.(check bool) "same chosen config" true
    (Config.equal seq.Tuner.chosen par.Tuner.chosen);
  Alcotest.(check (float 0.0)) "measured LUP/s bit-equal"
    seq.Tuner.measured_lups par.Tuner.measured_lups;
  Alcotest.(check int) "same attempts" seq.Tuner.attempts par.Tuner.attempts;
  Alcotest.(check bool) "sanitizer does not change the choice" true
    (Config.equal plain.Tuner.chosen seq.Tuner.chosen)

let prop_tuner_pool_invariant_seeds =
  QCheck.Test.make ~name:"tune_empirical pool-invariant across seeds" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let faults = Plan.v ~seed ~fail_rate:0.3 ~noise_sigma:0.1 () in
      let policy = Policy.v ~max_attempts:2 ~repeats:1 () in
      let space =
        [ Config.v ~threads:2 ();
          Config.v ~threads:2 ~block:[| 0; 8 |] ();
          Config.v ~threads:2 ~block:[| 0; 16 |] ();
          Config.v ~threads:2 ~fold:[| 1; 4 |] () ]
      in
      let dims = [| 32; 32 |] in
      let seq =
        Tuner.tune_empirical ~space ~faults ~policy machine spec2d ~dims
          ~threads:2
      in
      let par =
        Pool.with_pool ~domains:3 (fun pool ->
            Tuner.tune_empirical ~space ~faults ~policy ~pool machine spec2d
              ~dims ~threads:2)
      in
      Config.equal seq.Tuner.chosen par.Tuner.chosen
      && seq.Tuner.measured_lups = par.Tuner.measured_lups
      && seq.Tuner.attempts = par.Tuner.attempts
      && List.length seq.Tuner.skipped = List.length par.Tuner.skipped)

let test_parallel_pass_budget () =
  (* Under a pool the pass budget is enforced at candidate granularity:
     candidates whose start time lies past the deadline are never
     measured and are reported as budget skips. A counting clock makes
     this deterministic in outline — the first candidate always starts
     (its check is among the first reads) and the last never does (the
     8 start checks alone outrun a 5-tick budget). *)
  let space =
    List.init 8 (fun i -> Config.v ~threads:2 ~block:[| 0; 4 * (i + 1) |] ())
  in
  let dims = [| 32; 32 |] in
  let ticks = Atomic.make 0 in
  let clock =
    Clock.of_fun (fun () -> float_of_int (Atomic.fetch_and_add ticks 1))
  in
  let r =
    Pool.with_pool ~domains:2 (fun pool ->
        Tuner.tune_empirical ~space
          ~policy:(Policy.v ~pass_budget_s:5.0 ())
          ~clock ~pool machine spec2d ~dims ~threads:2)
  in
  Alcotest.(check bool) "some candidate ran" true (r.Tuner.kernel_runs >= 1);
  Alcotest.(check bool) "sweep was cut short" true
    (r.Tuner.kernel_runs < List.length space);
  Alcotest.(check bool) "budget skips reported" true
    (List.exists
       (fun s -> s.Tuner.s_reason = "pass budget exhausted")
       r.Tuner.skipped);
  Alcotest.(check bool) "not degraded by truncation" false r.Tuner.degraded

(* ------------------------------------------------------------------ *)
(* Prng indexed splits *)

let prop_create_indexed =
  QCheck.Test.make ~name:"create_indexed equals sequential splits" ~count:100
    QCheck.(pair small_int (int_range 0 20))
    (fun (seed, index) ->
      let root = Prng.create ~seed in
      let nth = ref (Prng.split root) in
      for _ = 1 to index do
        nth := Prng.split root
      done;
      let direct = Prng.create_indexed ~seed ~index in
      Prng.int64 !nth = Prng.int64 direct)

(* ------------------------------------------------------------------ *)
(* ECM memo cache *)

let info2d = Analysis.of_spec spec2d

let test_cache_hit () =
  let cache = Cache.create () in
  let dims = [| 48; 48 |] in
  let config = Config.v ~threads:2 () in
  let p1 = Cache.predict cache machine info2d ~dims ~config in
  let p2 = Cache.predict cache machine info2d ~dims ~config in
  let direct = Model.predict machine info2d ~dims ~config in
  Alcotest.(check (float 0.0)) "cached equals direct" direct.Model.t_ecm
    p1.Model.t_ecm;
  Alcotest.(check (float 0.0)) "hit equals miss" p1.Model.t_ecm p2.Model.t_ecm;
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Cache.hit_rate cache)

let test_cache_distinguishes_configs () =
  let cache = Cache.create () in
  let dims = [| 48; 48 |] in
  let _ = Cache.predict cache machine info2d ~dims ~config:(Config.v ()) in
  let _ =
    Cache.predict cache machine info2d ~dims ~config:(Config.v ~threads:2 ())
  in
  let _ =
    Cache.predict cache machine info2d ~dims:[| 32; 32 |]
      ~config:(Config.v ())
  in
  let s = Cache.stats cache in
  Alcotest.(check int) "three distinct keys" 3 s.Cache.misses;
  Alcotest.(check int) "no spurious hits" 0 s.Cache.hits

let test_cache_shared_across_domains () =
  let cache = Cache.create () in
  let dims = [| 48; 48 |] in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let configs = List.init 8 (fun i -> Config.v ~block:[| 0; 4 * (i + 1) |] ()) in
  let round () =
    Pool.parallel_map pool configs ~f:(fun config ->
        (Cache.predict cache machine info2d ~dims ~config).Model.t_ecm)
  in
  let r1 = round () in
  let r2 = round () in
  Alcotest.(check (list (float 0.0))) "parallel lookups agree" r1 r2;
  let s = Cache.stats cache in
  Alcotest.(check int) "all entries resident" 8 s.Cache.entries;
  Alcotest.(check bool) "second round hits" true (s.Cache.hits >= 8)

(* ------------------------------------------------------------------ *)
(* Welford statistics *)

let naive_mean_variance a =
  let n = Array.length a in
  let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let var =
    if n < 2 then 0.0
    else
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a
      /. float_of_int (n - 1)
  in
  (mean, var)

let prop_welford =
  QCheck.Test.make ~name:"welford matches two-pass formula" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun l ->
      let a = Array.of_list l in
      let nm, nv = naive_mean_variance a in
      let w = Stats.welford_create () in
      Array.iter (Stats.welford_add w) a;
      let wm = Stats.welford_mean w and wv = Stats.welford_variance w in
      let close x y = abs_float (x -. y) <= 1e-6 *. (1.0 +. abs_float y) in
      close wm nm && close wv nv)

let test_welford_incremental () =
  let w = Stats.welford_create () in
  Alcotest.check_raises "empty mean raises"
    (Invalid_argument "Stats.welford_mean: empty accumulator") (fun () ->
      ignore (Stats.welford_mean w));
  List.iter (Stats.welford_add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-12)) "mean" 5.0 (Stats.welford_mean w);
  Alcotest.(check (float 1e-12)) "sample variance" (32.0 /. 7.0)
    (Stats.welford_variance w);
  Alcotest.(check (float 1e-12)) "stddev"
    (sqrt (32.0 /. 7.0))
    (Stats.welford_stddev w)

let suite =
  [ qt prop_parallel_map;
    qt prop_parallel_for_covers;
    Alcotest.test_case "pool exception safety" `Quick test_pool_exception;
    Alcotest.test_case "nested parallel runs inline" `Quick
      test_nested_parallel;
    Alcotest.test_case "nested parallel from the caller domain" `Quick
      test_nested_from_caller;
    Alcotest.test_case "concurrent submitters serialised" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "parallel sweep honours pass budget" `Quick
      test_parallel_pass_budget;
    Alcotest.test_case "parallel sweep untraced" `Quick
      test_parallel_sweep_untraced;
    Alcotest.test_case "parallel sweep traced" `Quick
      test_parallel_sweep_traced;
    Alcotest.test_case "parallel sweep sanitized" `Quick
      test_parallel_sweep_sanitized;
    Alcotest.test_case "unblocked sweep ignores pool" `Quick
      test_unblocked_runs_sequentially;
    Alcotest.test_case "tune_empirical pool-invariant" `Quick
      test_tuner_pool_invariant;
    Alcotest.test_case "tune_empirical pool-invariant under sanitizer" `Quick
      test_tuner_pool_invariant_sanitized;
    qt prop_tuner_pool_invariant_seeds;
    qt prop_create_indexed;
    Alcotest.test_case "cache hit" `Quick test_cache_hit;
    Alcotest.test_case "cache keying" `Quick test_cache_distinguishes_configs;
    Alcotest.test_case "cache shared across domains" `Quick
      test_cache_shared_across_domains;
    qt prop_welford;
    Alcotest.test_case "welford incremental" `Quick test_welford_incremental ]
