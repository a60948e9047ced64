open Yasksite_faults
module Prng = Yasksite_util.Prng

let check_float = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* Plan                                                               *)

let test_plan_validation () =
  Alcotest.check_raises "fail_rate range"
    (Invalid_argument "Faults.Plan.v: fail_rate must be in [0, 1]") (fun () ->
      ignore (Plan.v ~fail_rate:1.5 ()));
  Alcotest.check_raises "outlier_factor"
    (Invalid_argument "Faults.Plan.v: outlier_factor must be >= 1") (fun () ->
      ignore (Plan.v ~outlier_factor:0.5 ()));
  Alcotest.check_raises "noise_sigma"
    (Invalid_argument "Faults.Plan.v: noise_sigma must be >= 0") (fun () ->
      ignore (Plan.v ~noise_sigma:(-0.1) ()));
  Alcotest.(check bool) "none is benign" true (Plan.is_benign Plan.none);
  Alcotest.(check bool) "fail plan is not" false
    (Plan.is_benign (Plan.v ~fail_rate:0.1 ()));
  Alcotest.(check string) "benign describe" "no faults"
    (Plan.describe Plan.none)

let test_benign_passthrough () =
  (* A benign injector is a pure pass-through: always [Run 1.0] and it
     never consumes the underlying RNG stream. *)
  let rng = Prng.create ~seed:5 in
  let inj = Plan.injector ~rng Plan.none in
  for _ = 1 to 20 do
    match Plan.draw inj with
    | Plan.Run f -> check_float "clean factor" 1.0 f
    | _ -> Alcotest.fail "benign plan produced a fault"
  done;
  Alcotest.(check int) "draws counted" 20 (Plan.draws inj);
  Alcotest.(check int) "no faults" 0 (Plan.faults inj);
  (* The RNG was left untouched: it still matches a fresh seed-5 stream. *)
  Alcotest.(check int64) "rng untouched"
    (Prng.int64 (Prng.create ~seed:5))
    (Prng.int64 rng)

let test_draw_determinism () =
  let plan =
    Plan.v ~seed:7 ~fail_rate:0.2 ~noise_sigma:0.1 ~outlier_rate:0.05 ()
  in
  let a = Plan.injector plan and b = Plan.injector plan in
  for _ = 1 to 200 do
    let oa = Plan.draw a and ob = Plan.draw b in
    let same =
      match (oa, ob) with
      | Plan.Run x, Plan.Run y -> x = y
      | Plan.Transient_failure, Plan.Transient_failure -> true
      | _ -> false
    in
    Alcotest.(check bool) "identical streams" true same
  done;
  Alcotest.(check int) "fault counters agree" (Plan.faults a) (Plan.faults b);
  Alcotest.(check bool) "some faults fired" true (Plan.faults a > 0)

let test_draw_rates () =
  (* With fail_rate 1 every draw is a transient failure. *)
  let inj = Plan.injector (Plan.v ~fail_rate:1.0 ()) in
  for _ = 1 to 10 do
    match Plan.draw inj with
    | Plan.Transient_failure -> ()
    | _ -> Alcotest.fail "expected Transient_failure"
  done;
  (* Outliers multiply by exactly the configured factor (no noise). *)
  let inj =
    Plan.injector (Plan.v ~outlier_rate:1.0 ~outlier_factor:4.0 ())
  in
  match Plan.draw inj with
  | Plan.Run f -> check_float "spike factor" 4.0 f
  | _ -> Alcotest.fail "expected Run"

(* ------------------------------------------------------------------ *)
(* Policy                                                             *)

let test_policy_validation () =
  Alcotest.check_raises "attempts"
    (Invalid_argument "Faults.Policy.v: max_attempts must be >= 1") (fun () ->
      ignore (Policy.v ~max_attempts:0 ()));
  Alcotest.check_raises "pass budget"
    (Invalid_argument "Faults.Policy.v: pass_budget_s must be positive")
    (fun () -> ignore (Policy.v ~pass_budget_s:0.0 ()));
  Alcotest.check_raises "repeats"
    (Invalid_argument "Faults.Policy.v: repeats must be >= 1") (fun () ->
      ignore (Policy.v ~repeats:0 ()))

let test_backoff_bounds () =
  let rng = Prng.create ~seed:3 in
  let prev = ref Policy.base_backoff_s in
  let capped = ref 0 in
  for _ = 1 to 100 do
    let d = Policy.backoff ~rng ~prev:!prev in
    Alcotest.(check bool) "at least base" true (d >= Policy.base_backoff_s);
    Alcotest.(check bool) "capped" true (d <= Policy.max_backoff_s);
    if d = Policy.max_backoff_s then incr capped;
    prev := d
  done;
  (* Decorrelated growth reaches the cap within 100 draws. *)
  Alcotest.(check bool) "cap reached" true (!capped > 0)

let test_robust_combine () =
  check_float "singleton passes through" 7.0 (Policy.robust_combine [| 7.0 |]);
  check_float "constant samples" 5.0
    (Policy.robust_combine [| 5.0; 5.0; 5.0 |]);
  (* The contention spike is rejected; the median of the clean cluster
     survives. *)
  let combined =
    Policy.robust_combine [| 100.0; 101.0; 99.0; 100.5; 30.0 |]
  in
  Alcotest.(check bool)
    (Printf.sprintf "outlier rejected (got %.1f)" combined)
    true
    (combined >= 99.0 && combined <= 101.0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Faults.Policy.robust_combine: no samples") (fun () ->
      ignore (Policy.robust_combine [||]))

(* ------------------------------------------------------------------ *)
(* Retry                                                              *)

(* A deterministic harness: virtual time only moves when [sleep] charges
   a backoff, exactly like the tuner's accounting. *)
let harness () =
  let t = ref 0.0 in
  let slept = ref [] in
  let now () = !t in
  let sleep d =
    slept := d :: !slept;
    t := !t +. d
  in
  (now, sleep, slept)

let test_retry_success_after_failures () =
  let now, sleep, slept = harness () in
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls < 3 then Error "flaky" else Ok !calls
  in
  let p = Policy.v ~max_attempts:5 () in
  (match Retry.run ~policy:p ~rng:(Prng.create ~seed:1) ~now ~sleep f with
  | Retry.Success (v, attempts) ->
      Alcotest.(check int) "value" 3 v;
      Alcotest.(check int) "attempts" 3 attempts
  | Retry.Gave_up _ -> Alcotest.fail "should have succeeded");
  Alcotest.(check int) "two backoffs charged" 2 (List.length !slept)

let test_retry_attempt_cap () =
  let now, sleep, _ = harness () in
  let calls = ref 0 in
  let f () =
    incr calls;
    Error "always fails"
  in
  let p = Policy.v ~max_attempts:4 () in
  (match Retry.run ~policy:p ~rng:(Prng.create ~seed:1) ~now ~sleep f with
  | Retry.Gave_up { reason; attempts } ->
      Alcotest.(check string) "last error" "always fails" reason;
      Alcotest.(check int) "attempts reported" 4 attempts
  | Retry.Success _ -> Alcotest.fail "cannot succeed");
  Alcotest.(check int) "f called exactly max_attempts times" 4 !calls

let test_retry_deadline () =
  let now, sleep, slept = harness () in
  let p = Policy.v ~max_attempts:10 () in
  let calls = ref 0 in
  let f () =
    incr calls;
    Error "fail"
  in
  (* Deadline at t=0.2: every backoff is at least 0.05 s, so virtual
     time passes it before the tenth attempt. Each attempt is followed
     by one backoff, and the check after the last one gives up. *)
  (match
     Retry.run ~policy:p ~rng:(Prng.create ~seed:1) ~now ~sleep ~deadline:0.2 f
   with
  | Retry.Gave_up { reason; attempts } ->
      Alcotest.(check string) "budget reason" "pass budget exhausted" reason;
      Alcotest.(check int) "one backoff per attempt" attempts
        (List.length !slept);
      Alcotest.(check bool) "gave up at the first check past the deadline"
        true
        (now () > 0.2 && now () -. List.hd !slept <= 0.2)
  | Retry.Success _ -> Alcotest.fail "cannot succeed");
  Alcotest.(check int) "stopped calling f" (List.length !slept) !calls

let test_retry_exhausted_deadline_zero_attempts () =
  let now, sleep, _ = harness () in
  let p = Policy.default in
  match
    Retry.run ~policy:p ~rng:(Prng.create ~seed:1) ~now ~sleep ~deadline:(-1.0)
      (fun () -> Ok ())
  with
  | Retry.Gave_up { attempts; _ } ->
      Alcotest.(check int) "zero attempts" 0 attempts
  | Retry.Success _ -> Alcotest.fail "deadline already passed"

let retry_never_exceeds_caps =
  QCheck.Test.make ~name:"retry respects attempt and backoff caps" ~count:200
    QCheck.(triple small_int (int_range 1 8) (int_range 0 10))
    (fun (seed, max_attempts, fail_count) ->
      let now, sleep, slept = harness () in
      let p = Policy.v ~max_attempts () in
      let calls = ref 0 in
      let f () =
        incr calls;
        if !calls <= fail_count then Error "injected" else Ok ()
      in
      let _ = Retry.run ~policy:p ~rng:(Prng.create ~seed) ~now ~sleep f in
      !calls <= max_attempts
      && List.for_all
           (fun d -> d >= Policy.base_backoff_s && d <= Policy.max_backoff_s)
           !slept
      && List.length !slept <= max_attempts - 1)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                         *)

let sample_entries =
  [ (0, Checkpoint.Done { lups = 1.23456789e9; runs = 3; attempts = 4 });
    (1, Checkpoint.Skipped { reason = "transient failure"; attempts = 3 });
    (2, Checkpoint.Done { lups = 0x1.fffp10; runs = 1; attempts = 1 }) ]

let entries_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, x) (j, y) ->
         i = j
         &&
         match (x, y) with
         | ( Checkpoint.Done { lups = l1; runs = r1; attempts = a1 },
             Checkpoint.Done { lups = l2; runs = r2; attempts = a2 } ) ->
             l1 = l2 && r1 = r2 && a1 = a2
         | ( Checkpoint.Skipped { reason = s1; attempts = a1 },
             Checkpoint.Skipped { reason = s2; attempts = a2 } ) ->
             s1 = s2 && a1 = a2
         | _ -> false)
       a b

let test_checkpoint_roundtrip () =
  let key = "deadbeef" in
  let s = Checkpoint.render ~key sample_entries in
  Alcotest.(check bool) "round trip exact" true
    (entries_equal sample_entries (Checkpoint.parse ~key s));
  Alcotest.(check bool) "key mismatch loads empty" true
    (Checkpoint.parse ~key:"otherkey" s = []);
  (* Malformed lines are dropped, surviving lines still parse. *)
  let mangled = s ^ "garbage line\ndone not-a-number\n" in
  Alcotest.(check bool) "lenient parse" true
    (entries_equal sample_entries (Checkpoint.parse ~key mangled))

let test_checkpoint_file () =
  let path = Filename.temp_file "yasksite" ".ckpt" in
  let key = "cafe01" in
  Checkpoint.save ~path ~key sample_entries;
  Alcotest.(check bool) "load back" true
    (entries_equal sample_entries (Checkpoint.load ~path ~key));
  Alcotest.(check bool) "wrong key empty" true
    (Checkpoint.load ~path ~key:"wrong" = []);
  Sys.remove path;
  Alcotest.(check bool) "missing file empty" true
    (Checkpoint.load ~path ~key = [])

let test_checkpoint_save_atomic_replace () =
  (* Regression: save must commit via a fresh fsynced temp file renamed
     over the destination — a stale temp from a crashed writer must not
     survive or leak into the checkpoint, and a shorter checkpoint must
     fully replace a longer one (no tail of the old file showing
     through). *)
  let path = Filename.temp_file "yasksite" ".ckpt" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; tmp ])
  @@ fun () ->
  let key = "cafe02" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc "stale garbage from a crashed writer");
  Checkpoint.save ~path ~key sample_entries;
  Alcotest.(check bool) "saved over stale temp" true
    (entries_equal sample_entries (Checkpoint.load ~path ~key));
  Alcotest.(check bool) "no temp file left behind" false
    (Sys.file_exists tmp);
  let shorter = [ List.hd sample_entries ] in
  Checkpoint.save ~path ~key shorter;
  Alcotest.(check bool) "shorter checkpoint fully replaces" true
    (entries_equal shorter (Checkpoint.load ~path ~key))

let qt = QCheck_alcotest.to_alcotest

let suite =
  [ Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "benign passthrough" `Quick test_benign_passthrough;
    Alcotest.test_case "draw determinism" `Quick test_draw_determinism;
    Alcotest.test_case "draw rates" `Quick test_draw_rates;
    Alcotest.test_case "policy validation" `Quick test_policy_validation;
    Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "robust combine" `Quick test_robust_combine;
    Alcotest.test_case "retry success after failures" `Quick
      test_retry_success_after_failures;
    Alcotest.test_case "retry attempt cap" `Quick test_retry_attempt_cap;
    Alcotest.test_case "retry deadline" `Quick test_retry_deadline;
    Alcotest.test_case "retry spent deadline" `Quick
      test_retry_exhausted_deadline_zero_attempts;
    qt retry_never_exceeds_caps;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint file" `Quick test_checkpoint_file;
    Alcotest.test_case "checkpoint save atomic replace" `Quick
      test_checkpoint_save_atomic_replace ]
