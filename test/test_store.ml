module Store = Yasksite_store.Store
module Io = Yasksite_faults.Io
module Checkpoint = Yasksite_faults.Checkpoint
module Machine = Yasksite_arch.Machine
module Suite = Yasksite_stencil.Suite
module Analysis = Yasksite_stencil.Analysis
module Config = Yasksite_ecm.Config
module Cache = Yasksite_ecm.Cache
module Advisor = Yasksite_ecm.Advisor
module Offsite = Yasksite_offsite.Offsite
module Tuner = Yasksite_tuner.Tuner

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let root_seq = ref 0

let fresh_root () =
  incr root_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ysstore-test-%d-%d" (Unix.getpid ()) !root_seq)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun n -> rm_rf (Filename.concat path n))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_root f =
  let root = fresh_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* The first committed entry file under objects/ (bucketed layout). *)
let entry_files root =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | names ->
        Array.iter
          (fun n ->
            let p = Filename.concat dir n in
            if Sys.is_directory p then walk p
            else if not (String.length n > 0 && n.[0] = '.') then
              acc := p :: !acc)
          names
    | exception Sys_error _ -> ()
  in
  walk (Filename.concat root "objects");
  !acc

(* ------------------------------------------------------------------ *)
(* Basic entry semantics                                               *)

let test_roundtrip () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Alcotest.(check bool) "active" true (Store.active s);
  Alcotest.(check bool) "writable" true (Store.writable s);
  Alcotest.(check bool) "absent misses" true
    (Store.get s ~ns:"a" ~key:"k" = None);
  Store.put s ~ns:"a" ~key:"k" "hello";
  Alcotest.(check (option string)) "round trip" (Some "hello")
    (Store.get s ~ns:"a" ~key:"k");
  Alcotest.(check bool) "mem" true (Store.mem s ~ns:"a" ~key:"k");
  (* Same key, different namespace: independent slots. *)
  Alcotest.(check bool) "ns isolation" true
    (Store.get s ~ns:"b" ~key:"k" = None);
  Store.put s ~ns:"a" ~key:"k" "replaced";
  Alcotest.(check (option string)) "overwrite" (Some "replaced")
    (Store.get s ~ns:"a" ~key:"k");
  (* Binary-ish payloads (newlines, NULs) survive exactly. *)
  let blob = "line1\nline2\x00tail" in
  Store.put s ~ns:"a" ~key:"blob" blob;
  Alcotest.(check (option string)) "binary payload" (Some blob)
    (Store.get s ~ns:"a" ~key:"blob");
  (* A second handle on the same root sees committed state. *)
  let s2 = Store.open_root root in
  Alcotest.(check (option string)) "shared root" (Some "replaced")
    (Store.get s2 ~ns:"a" ~key:"k")

let test_persistence_across_reopen () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Store.put s ~ns:"n" ~key:"k" "payload";
  let s' = Store.open_root root in
  Alcotest.(check (option string)) "survives reopen" (Some "payload")
    (Store.get s' ~ns:"n" ~key:"k")

(* ------------------------------------------------------------------ *)
(* Crash consistency                                                   *)

let test_crash_consistency () =
  with_root @@ fun root ->
  let v1 = "value-one" and v2 = "value-two-longer-payload" in
  let s0 = Store.open_root root in
  Store.put s0 ~ns:"t" ~key:"k" v1;
  let crashes = ref 0 and commits = ref 0 in
  (* Enumerate every crash point of the commit protocol: at each guarded
     syscall index, kill the "process" there and check the slot holds
     the old or the new value — never a torn or absent one. *)
  for at = 1 to 16 do
    let io = Io.injector (Io.plan ~crash_at:at ()) in
    (try
       let s = Store.open_root ~io root in
       Store.put s ~ns:"t" ~key:"k" v2;
       incr commits
     with Io.Crashed _ -> incr crashes);
    let s' = Store.open_root root in
    match Store.get s' ~ns:"t" ~key:"k" with
    | Some v when v = v1 || v = v2 -> ()
    | Some v -> Alcotest.failf "torn value observed at crash point %d: %S" at v
    | None -> Alcotest.failf "committed value lost at crash point %d" at
  done;
  Alcotest.(check bool) "some crash points fired" true (!crashes > 0);
  Alcotest.(check bool) "some commits completed" true (!commits > 0)

let store_never_torn =
  QCheck.Test.make
    ~name:"store: seeded ENOSPC/EIO/torn faults leave old-or-new, never torn"
    ~count:60 QCheck.small_int (fun seed ->
      with_root @@ fun root ->
      let io =
        Io.injector
          (Io.plan ~seed ~enospc_rate:0.15 ~eio_rate:0.15 ~torn_rate:0.2 ())
      in
      let s = Store.open_root ~io root in
      (* What the slot may legitimately hold. A counted write pins it to
         the new value; an errored put leaves it at any previous
         possibility OR the new value (a fault on the directory fsync
         lands after the publishing rename), never anything else. *)
      let possible = ref [ None ] in
      let ok = ref true in
      for i = 1 to 8 do
        let v = Printf.sprintf "payload-%d-%d" seed i in
        let before = (Store.stats s).Store.writes in
        Store.put s ~ns:"p" ~key:"k" v;
        if (Store.stats s).Store.writes > before then possible := [ Some v ]
        else possible := Some v :: !possible;
        (* A read may degrade to a miss under injected EIO, but a hit
           must be bit-exactly one of the committable payloads. *)
        match Store.get s ~ns:"p" ~key:"k" with
        | None -> ()
        | Some got -> if not (List.mem (Some got) !possible) then ok := false
      done;
      (* Committed state must be durable and clean under real I/O. *)
      let s' = Store.open_root root in
      if not (List.mem (Store.get s' ~ns:"p" ~key:"k") !possible) then
        ok := false;
      !ok)

let test_torn_write_never_published () =
  with_root @@ fun root ->
  let s0 = Store.open_root root in
  Store.put s0 ~ns:"t" ~key:"k" "good";
  (* Every write tears but reports success: the read-back verification
     must catch it and abort the commit before the rename. *)
  let io = Io.injector (Io.plan ~torn_rate:1.0 ()) in
  let s = Store.open_root ~io root in
  Store.put s ~ns:"t" ~key:"k" "new-but-torn";
  Alcotest.(check int) "commit aborted" 1 (Store.stats s).Store.write_errors;
  let s' = Store.open_root root in
  Alcotest.(check (option string)) "old value preserved" (Some "good")
    (Store.get s' ~ns:"t" ~key:"k")

(* ------------------------------------------------------------------ *)
(* Corruption and degradation                                          *)

let test_quarantine_and_repair () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Store.put s ~ns:"q" ~key:"k" "original";
  (match entry_files root with
  | [ file ] ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc "flipped bits")
  | files -> Alcotest.failf "expected one entry file, found %d"
               (List.length files));
  let s2 = Store.open_root root in
  Alcotest.(check (option string)) "corrupt entry misses" None
    (Store.get s2 ~ns:"q" ~key:"k");
  Alcotest.(check int) "quarantined" 1 (Store.stats s2).Store.quarantined;
  Alcotest.(check int) "moved to corrupt/" 1 (Store.usage s2).Store.corrupt;
  (* The caller recomputes and the next put repairs the slot. *)
  Store.put s2 ~ns:"q" ~key:"k" "recomputed";
  Alcotest.(check (option string)) "repaired" (Some "recomputed")
    (Store.get s2 ~ns:"q" ~key:"k")

let test_version_mismatch_disables () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Store.put s ~ns:"v" ~key:"k" "data";
  Out_channel.with_open_bin (Filename.concat root "VERSION") (fun oc ->
      Out_channel.output_string oc "yasksite-store v99\n");
  let s2 = Store.open_root root in
  Alcotest.(check bool) "disabled" false (Store.active s2);
  Alcotest.(check (option string)) "gets miss cleanly" None
    (Store.get s2 ~ns:"v" ~key:"k");
  (* Puts drop without touching the foreign layout. *)
  Store.put s2 ~ns:"v" ~key:"k" "ignored";
  Alcotest.(check int) "nothing written" 0 (Store.stats s2).Store.writes

let test_unusable_root_degrades () =
  (* A root that cannot exist: every operation degrades, none raises. *)
  let s = Store.open_root "/dev/null/nope" in
  Alcotest.(check bool) "disabled" false (Store.active s);
  Alcotest.(check bool) "not writable" false (Store.writable s);
  Store.put s ~ns:"x" ~key:"k" "v";
  Alcotest.(check (option string)) "miss" None (Store.get s ~ns:"x" ~key:"k");
  Alcotest.(check int) "verify scans nothing" 0 (Store.verify s).Store.scanned;
  let g = Store.gc s in
  Alcotest.(check int) "gc removes nothing" 0 g.Store.removed;
  Alcotest.(check int) "usage empty" 0 (Store.usage s).Store.entries;
  Alcotest.(check int) "with_lock still runs" 42
    (Store.with_lock s ~name:"l" (fun () -> 42))

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let test_stale_lock_takeover () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  (* Plant a lock naming a pid that cannot exist (beyond pid_max). *)
  let locks = Filename.concat root "locks" in
  (try Unix.mkdir locks 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let lock = Filename.concat locks "gc.lock" in
  Out_channel.with_open_bin lock (fun oc ->
      Out_channel.output_string oc "99999999\n");
  Alcotest.(check int) "runs under broken lock" 7
    (Store.with_lock s ~name:"gc" (fun () -> 7));
  Alcotest.(check int) "stale lock taken over" 1
    (Store.stats s).Store.locks_broken

let test_live_lock_times_out_but_runs () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  (* A lock held by a live process (ourselves): the waiter times out and
     proceeds anyway — liveness over exclusion, commits are atomic. *)
  let locks = Filename.concat root "locks" in
  (try Unix.mkdir locks 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let lock = Filename.concat locks "busy.lock" in
  Out_channel.with_open_bin lock (fun oc ->
      Out_channel.output_string oc (string_of_int (Unix.getpid ())));
  Alcotest.(check int) "still runs after timeout" 9
    (Store.with_lock ~wait_s:0.05 s ~name:"busy" (fun () -> 9));
  Alcotest.(check int) "live lock not broken" 0
    (Store.stats s).Store.locks_broken

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

let test_verify_quarantines_bad_entries () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Store.put s ~ns:"m" ~key:"a" "alpha";
  Store.put s ~ns:"m" ~key:"b" "beta";
  (match entry_files root with
  | file :: _ ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc "not an entry")
  | [] -> Alcotest.fail "no entry files");
  let r = Store.verify s in
  Alcotest.(check int) "scanned" 2 r.Store.scanned;
  Alcotest.(check int) "ok" 1 r.Store.ok;
  Alcotest.(check int) "bad" 1 r.Store.bad;
  Alcotest.(check int) "quarantined" 1 (Store.usage s).Store.corrupt;
  (* A second pass over the cleaned store is all-ok. *)
  let r2 = Store.verify s in
  Alcotest.(check int) "clean rescan" 0 r2.Store.bad

let test_verify_rejects_moved_entry () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  Store.put s ~ns:"m" ~key:"a" "alpha";
  (* A valid entry under the wrong filename is a lie about its content
     address: verify must quarantine it. *)
  (match entry_files root with
  | [ file ] ->
      let dir = Filename.dirname file in
      Sys.rename file
        (Filename.concat dir "00000000000000000000000000000000")
  | _ -> Alcotest.fail "expected one entry file");
  let r = Store.verify s in
  Alcotest.(check int) "misplaced entry is bad" 1 r.Store.bad

let test_gc_age_and_size () =
  with_root @@ fun root ->
  let s = Store.open_root root in
  for i = 1 to 10 do
    Store.put s ~ns:"g" ~key:(string_of_int i) (String.make 100 'x')
  done;
  (* Nothing is older than an hour: age-only gc keeps everything. *)
  let r = Store.gc ~max_age_s:3600.0 s in
  Alcotest.(check int) "age keeps fresh entries" 0 r.Store.removed;
  (* Size bound forces oldest-first eviction down to the budget. *)
  let r2 = Store.gc ~max_size_bytes:500 s in
  Alcotest.(check bool) "evicted down to budget" true
    (r2.Store.bytes_kept <= 500 && r2.Store.removed > 0);
  Alcotest.(check int) "usage agrees" r2.Store.kept
    (Store.usage s).Store.entries;
  (* max_age_s 0 empties the store. *)
  let r3 = Store.gc ~max_age_s:0.0 s in
  Alcotest.(check int) "expire all" 0 r3.Store.kept

(* ------------------------------------------------------------------ *)
(* Default resolution                                                  *)

let test_default_env () =
  let saved_store = Sys.getenv_opt "YASKSITE_STORE" in
  let saved_kill = Sys.getenv_opt "YASKSITE_NO_STORE" in
  let restore () =
    Unix.putenv "YASKSITE_STORE" (Option.value saved_store ~default:"");
    Unix.putenv "YASKSITE_NO_STORE" (Option.value saved_kill ~default:"");
    Store.reset_default_for_tests ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  with_root @@ fun root ->
  Unix.putenv "YASKSITE_STORE" root;
  Unix.putenv "YASKSITE_NO_STORE" "";
  Store.reset_default_for_tests ();
  Alcotest.(check string) "env root respected" root (Store.default_root ());
  (match Store.default () with
  | Some s -> Alcotest.(check string) "default opens env root" root
                (Store.root s)
  | None -> Alcotest.fail "default store expected");
  (* The kill switch keeps every consumer purely in-memory. *)
  Unix.putenv "YASKSITE_NO_STORE" "1";
  Store.reset_default_for_tests ();
  Alcotest.(check bool) "kill switch" true (Store.default () = None)

(* ------------------------------------------------------------------ *)
(* Model-cache keys and the Offsite config memo                        *)

let machine = Machine.test_chip
let spec = Suite.resolve_defaults Suite.heat_2d_5pt
let info = Analysis.of_spec spec
let dims = [| 48; 48 |]

(* Model predictions stay in memory, but Offsite's memo keys share their
   machine component, and a ranking's predictor, which digests the
   machine and the kernel once, must hit every entry that one-config
   lookups made — including lookups through a structurally equal copy
   of the machine. *)
let test_ranking_keys_match_single_lookups () =
  let threads = 2 in
  let space = Advisor.space machine ~dims ~threads ~rank:2 in
  let n = List.length space in
  let c = Cache.create () in
  let copy = { machine with Machine.cores = machine.Machine.cores } in
  List.iter
    (fun config -> ignore (Cache.predict c copy info ~dims ~config))
    space;
  Alcotest.(check int) "one entry per config" n (Cache.stats c).Cache.entries;
  let ranked = Advisor.rank_all ~cache:c machine info ~dims ~threads in
  let s = Cache.stats c in
  Alcotest.(check int) "every config served by the memo" n s.Cache.hits;
  Alcotest.(check int) "no miss beyond the single lookups" n s.Cache.misses;
  Alcotest.(check bool) "same ranking as the model's" true
    (ranked = Advisor.rank_all machine info ~dims ~threads)

(* [offsite-v1] is the one tuning memo kept on disk: a warm call skips
   the ranking, and a memo that does not decode, names a wavefront or
   fails the schedule analyzer is re-ranked and repaired. *)
let test_offsite_memo () =
  with_root @@ fun root ->
  let threads = 2 in
  let best ?cache ?store () =
    Offsite.best_static_config ?cache ?store machine info ~dims ~threads
  in
  let base = best () in
  let store = Store.open_root root in
  Alcotest.(check bool) "cold: store-less config" true
    (Config.equal (best ~store ()) base);
  Alcotest.(check int) "cold: one entry written" 1
    (Store.usage store).Store.entries;
  let c = Cache.create () in
  Alcotest.(check bool) "warm: same config" true
    (Config.equal (best ~cache:c ~store:(Store.open_root root) ()) base);
  let s = Cache.stats c in
  Alcotest.(check int) "warm: no model-cache lookup" 0
    (s.Cache.hits + s.Cache.misses);
  let key =
    match
      Store.fold_ns store ~ns:"offsite-v1" ~init:[] (fun acc ~key ~payload:_ ->
          key :: acc)
    with
    | [ k ] -> k
    | ks ->
        Alcotest.failf "expected one offsite-v1 entry, found %d"
          (List.length ks)
  in
  let refuted = Config.v ~threads ~fold:[| 1; 64 |] () in
  Alcotest.(check bool) "the analyzer refutes the planted config" false
    (Yasksite_lint.Lint.Schedule.legal info ~dims refuted);
  List.iter
    (fun (what, payload) ->
      Store.put store ~ns:"offsite-v1" ~key payload;
      let c = Cache.create () in
      Alcotest.(check bool) (what ^ ": same config") true
        (Config.equal (best ~cache:c ~store:(Store.open_root root) ()) base);
      Alcotest.(check bool) (what ^ ": re-ranked") true
        ((Cache.stats c).Cache.misses > 0);
      Alcotest.(check (option string)) (what ^ ": slot repaired")
        (Some (Config.to_string base))
        (Store.get (Store.open_root root) ~ns:"offsite-v1" ~key))
    [ ("undecodable", "not a config");
      ("wavefront", Config.to_string (Config.v ~threads ~wavefront:2 ()));
      ("refuted", Config.to_string refuted) ];
  Alcotest.(check bool) "unusable root: store-less config" true
    (Config.equal (best ~store:(Store.open_root "/dev/null/nope") ()) base)

(* ------------------------------------------------------------------ *)
(* Tuner checkpoints through the store                                 *)

let small_space =
  [ Yasksite_ecm.Config.v ~threads:2 ();
    Yasksite_ecm.Config.v ~threads:2 ~block:[| 0; 16 |] ();
    Yasksite_ecm.Config.v ~threads:2 ~fold:[| 1; 4 |] () ]

let test_tuner_checkpoint_via_store () =
  with_root @@ fun root ->
  let store = Store.open_root root in
  let r1 =
    Tuner.tune_empirical ~space:small_space ~store machine spec ~dims
      ~threads:2
  in
  Alcotest.(check int) "cold sweep ran every candidate"
    (List.length small_space) r1.Tuner.kernel_runs;
  Alcotest.(check bool) "checkpoint persisted" true
    ((Store.usage store).Store.entries > 0);
  (* A second sweep on the same root resumes: zero kernel runs, same
     choice, bit-equal measurement. *)
  let r2 =
    Tuner.tune_empirical ~space:small_space ~store:(Store.open_root root)
      machine spec ~dims ~threads:2
  in
  Alcotest.(check int) "warm sweep re-ran nothing" 0 r2.Tuner.kernel_runs;
  Alcotest.(check bool) "same choice" true
    (Config.equal r1.Tuner.chosen r2.Tuner.chosen);
  Alcotest.(check (float 0.0)) "bit-equal measurement" r1.Tuner.measured_lups
    r2.Tuner.measured_lups

let test_tuner_degraded_store_identity () =
  (* An unusable store root must leave the sweep bit-identical to a
     store-less run. *)
  let baseline =
    Tuner.tune_empirical ~space:small_space machine spec ~dims ~threads:2
  in
  let degraded =
    Tuner.tune_empirical ~space:small_space
      ~store:(Store.open_root "/dev/null/nope") machine spec ~dims ~threads:2
  in
  Alcotest.(check bool) "same choice" true
    (Config.equal baseline.Tuner.chosen degraded.Tuner.chosen);
  Alcotest.(check (float 0.0)) "bit-equal measurement"
    baseline.Tuner.measured_lups degraded.Tuner.measured_lups;
  Alcotest.(check int) "same kernel runs" baseline.Tuner.kernel_runs
    degraded.Tuner.kernel_runs

(* Satellite: stale or corrupt checkpoints must never leak results into
   a scheme-3 sweep — they load as empty and the sweep re-measures. *)

let bogus_entries =
  [ (0, Checkpoint.Done { lups = 1e30; runs = 1; attempts = 1 });
    (1, Checkpoint.Done { lups = 1e30; runs = 1; attempts = 1 });
    (2, Checkpoint.Done { lups = 1e30; runs = 1; attempts = 1 }) ]

let check_sweep_ignores_checkpoint ~what path =
  let baseline =
    Tuner.tune_empirical ~space:small_space machine spec ~dims ~threads:2
  in
  let r =
    Tuner.tune_empirical ~space:small_space ~checkpoint:path machine spec
      ~dims ~threads:2
  in
  Alcotest.(check int) (what ^ ": every candidate re-measured")
    (List.length small_space) r.Tuner.kernel_runs;
  Alcotest.(check bool) (what ^ ": absurd lups did not leak") true
    (r.Tuner.measured_lups < 1e29);
  Alcotest.(check bool) (what ^ ": same choice as clean sweep") true
    (Config.equal baseline.Tuner.chosen r.Tuner.chosen);
  Alcotest.(check (float 0.0)) (what ^ ": bit-equal measurement")
    baseline.Tuner.measured_lups r.Tuner.measured_lups

let test_stale_checkpoint_loads_empty () =
  let path = Filename.temp_file "ysstale" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* A checkpoint written under another key derivation (e.g. scheme 2)
     carries a key this sweep does not derive: it must load as empty. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Checkpoint.render ~key:"0123456789abcdef0123456789abcdef"
           bogus_entries));
  check_sweep_ignores_checkpoint ~what:"stale key" path

let test_corrupt_checkpoint_loads_empty () =
  let path = Filename.temp_file "yscorrupt" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Truncated mid-write: header gone, lines mangled. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "yasksite-checkpoint v1\tgarb");
  check_sweep_ignores_checkpoint ~what:"truncated" path

(* ------------------------------------------------------------------ *)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [ Alcotest.test_case "round trip" `Quick test_roundtrip;
    Alcotest.test_case "persists across reopen" `Quick
      test_persistence_across_reopen;
    Alcotest.test_case "crash-point enumeration" `Quick
      test_crash_consistency;
    qt store_never_torn;
    Alcotest.test_case "torn write never published" `Quick
      test_torn_write_never_published;
    Alcotest.test_case "quarantine and repair" `Quick
      test_quarantine_and_repair;
    Alcotest.test_case "version mismatch disables" `Quick
      test_version_mismatch_disables;
    Alcotest.test_case "unusable root degrades" `Quick
      test_unusable_root_degrades;
    Alcotest.test_case "stale lock takeover" `Quick test_stale_lock_takeover;
    Alcotest.test_case "live lock timeout" `Quick
      test_live_lock_times_out_but_runs;
    Alcotest.test_case "verify quarantines bad entries" `Quick
      test_verify_quarantines_bad_entries;
    Alcotest.test_case "verify rejects moved entry" `Quick
      test_verify_rejects_moved_entry;
    Alcotest.test_case "gc age and size" `Quick test_gc_age_and_size;
    Alcotest.test_case "default resolution" `Quick test_default_env;
    Alcotest.test_case "ranking keys match single lookups" `Quick
      test_ranking_keys_match_single_lookups;
    Alcotest.test_case "offsite memo warm start and repair" `Quick
      test_offsite_memo;
    Alcotest.test_case "tuner checkpoint via store" `Quick
      test_tuner_checkpoint_via_store;
    Alcotest.test_case "tuner degraded-store identity" `Quick
      test_tuner_degraded_store_identity;
    Alcotest.test_case "stale checkpoint loads empty" `Quick
      test_stale_checkpoint_loads_empty;
    Alcotest.test_case "corrupt checkpoint loads empty" `Quick
      test_corrupt_checkpoint_loads_empty ]
