(* The benchmark's entry point: one workload per process, timed on the
   monotonic wall clock with tracing off, or traced to split an op by
   layer.

     main.exe --workload rank|ode|program --seed N --seconds S --trace 0|1
     main.exe --smoke

   The last line of standard output is the result: ops attempted and
   failed, and the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1). Every workload's inputs are fixed, so that each
   op repeats identical work whose output can be checked against
   committed values; the seed is recorded with the run. *)

open Yasksite
module W = Workloads

(* Process-global switches of the library, pinned before the first
   library call: a sanitized sweep would time a program about 13x
   slower, a store would make one run warm the next, and a pool would
   measure the scheduler. *)
let pinned =
  [ ("YASKSITE_SANITIZE", "0");
    ("YASKSITE_BACKEND", "plan");
    ("YASKSITE_NO_CERT", "0");
    ("YASKSITE_DOMAINS", "1");
    ("YASKSITE_NO_STORE", "1") ]

let warmup_ops = 2
let setup_every_s = 8.0
let setup_burst_s = 0.05
let setup_burst_rounds = 1000
let out_dir = ".perfbench"

let end_to_end =
  [ ("setup_s", "s"); ("op_p50_s", "s"); ("op_p90_s", "s"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("lint.schedule_s", "s");
    ("lint.program_s", "s");
    ("ecm.rank_all_s", "s");
    ("ecm.rank_partitions_s", "s");
    ("ecm.evals", "count");
    ("ecm.eval_us", "us");
    ("ecm.predict_s", "s");
    ("ecm.best_partition_s", "s");
    ("ecm.cache_hits", "count");
    ("ecm.cache_misses", "count");
    ("ecm.cache_hit_ratio", "ratio");
    ("offsite.evaluate_s", "s");
    ("offsite.best_static_config_s", "s");
    ("offsite.self_s", "s");
    ("measure.calls", "count");
    ("measure.stencil_sweep_s", "s");
    ("measure.sim_points", "count");
    ("measure.sim_mlups", "MLUP/s");
    ("cachesim.l1l2_lines_per_cl", "lines/CL");
    ("cachesim.l2l3_lines_per_cl", "lines/CL");
    ("cachesim.l3mem_lines_per_cl", "lines/CL");
    ("prog.plan.unfused_s", "s");
    ("prog.plan.best_s", "s");
    ("prog.codegen.unfused_s", "s");
    ("prog.codegen.best_s", "s");
    ("prog.unfused.points", "count");
    ("prog.best.points", "count");
    ("prog.unfused.stages", "count");
    ("prog.best.stages", "count");
    ("prog.unfused.intermediate_mb", "MiB");
    ("prog.best.intermediate_mb", "MiB");
    ("grid.inputs_s", "s");
    ("native.resolve_s", "s");
    ("native.compiles", "count");
    ("native.validations", "count");
    ("native.fallbacks", "count");
    ("stencil.parse_s", "s");
    ("stencil.fuse_s", "s");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("mlups_plan", "MLUP/s");
    ("mlups_codegen", "MLUP/s") ]

(* ---- host ---- *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_lines with Sys_error _ -> []

let field lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    lines

let size_bytes s =
  let n = String.length s in
  let num k = Option.value (int_of_string_opt (String.sub s 0 (n - 1))) ~default:0 * k in
  if n = 0 then 0
  else match s.[n - 1] with
    | 'K' -> num 1024
    | 'M' -> num 1048576
    | _ -> Option.value (int_of_string_opt s) ~default:0

(* Unified cache of the given level as seen by cpu0, in bytes (0 when
   sysfs does not say). *)
let host_cache level =
  List.fold_left
    (fun acc i ->
      let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/" i in
      match read_lines (dir ^ "level"), read_lines (dir ^ "type"), read_lines (dir ^ "size") with
      | [ l ], [ "Unified" ], [ s ] when int_of_string_opt l = Some level -> size_bytes s
      | _ -> acc)
    0 [ 0; 1; 2; 3; 4 ]

let peak_rss_mb () =
  match field (read_lines "/proc/self/status") "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> nan)
  | None -> nan

(* A fixed compute-only loop, timed at the start and the end of a run:
   independent multiply-adds over an L1-resident array, the kind of
   throughput a busy neighbour on a shared core takes away, so a run
   taken while the host was slow shows. Median of five, in ms. *)
let host_loop_ms () =
  let a = Array.make 4096 1.0 in
  Summary.median
    (Array.init 5 (fun _ ->
         let t0 = Span.now_ns () in
         for _ = 1 to 2000 do
           for i = 0 to 4095 do
             a.(i) <- (a.(i) *. 0.999) +. 0.001
           done
         done;
         1e3 *. Span.seconds t0 (Span.now_ns ())))

let host_meta () =
  let cpu = read_lines "/proc/cpuinfo" in
  Json.Obj
    [ ("nproc", Json.Int (List.length (List.filter (String.starts_with ~prefix:"processor") cpu)));
      ("cpu", Json.Str (Option.value (field cpu "model name") ~default:"unknown"));
      ("l2_bytes", Json.Int (host_cache 2));
      ("l3_bytes", Json.Int (host_cache 3));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "toolchain",
        match Engine.Native.toolchain_id () with
        | Some (v, flags) -> Json.Str (String.concat " " (v :: flags))
        | None -> Json.Str "none" );
      ("commit", Json.Str (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"));
      ("pinned", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pinned)) ]

(* ---- runs ---- *)

type measured = {
  setups : float array;  (** per set-up burst, the median round in seconds *)
  rounds : int;  (** set-up rounds over all bursts *)
  attempted : int;
  failed : int;
  untraced : float array;  (** op seconds of passing untraced ops *)
  traced : float array;
  rates : (string * float) list list;  (** of passing untraced ops *)
}

(* One run of a workload. The set-up is timed in bursts spread over the
   run — one before the first op, then one every [setup_every_s] — so
   that a host whose speed drifts weighs on set-up as it does on the
   ops. A burst repeats the set-up back to back until [setup_burst_s]
   have passed or [setup_burst_rounds] are done, so that a set-up of
   microseconds is timed many times, and counts once with its median
   round. It collects only before its first round: a thousand forced
   collections skew the GC's pacing and swell the heap of the ops that
   follow. The first instance serves every op, and time spent in later
   bursts extends the run.

   Ops run back to back until [seconds] have passed, at least two of
   them, after [warmup_ops] discarded ones. With [traced], every second
   op is recorded with spans and followed by the replay; the others give
   the untraced baseline of the tracing overhead. *)
let run (w : W.t) ~seconds ~traced =
  let setups = ref [] and rounds = ref 0 in
  let burst () =
    Gc.compact ();
    let start = Span.now_ns () in
    let rec go first times n =
      incr rounds;
      Span.set_op (- !rounds);
      Span.set_recording traced;
      let t0 = Span.now_ns () in
      let inst = w.W.setup () in
      let t1 = Span.now_ns () in
      Span.set_recording false;
      let first = Option.value first ~default:inst in
      let times = Span.seconds t0 t1 :: times in
      if Span.seconds start t1 < setup_burst_s && n < setup_burst_rounds then
        go (Some first) times (n + 1)
      else begin
        setups := Summary.median (Array.of_list times) :: !setups;
        first
      end
    in
    go None [] 1
  in
  let inst = burst () in
  for _ = 1 to warmup_ops do
    try ignore (inst.W.op ()) with _ -> ()
  done;
  let after s = Int64.add (Span.now_ns ()) (Int64.of_float (s *. 1e9)) in
  let deadline = ref (after seconds) and next_setup = ref (after setup_every_s) in
  let untraced = ref [] and traced_s = ref [] and rates = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  while !attempted < 2 || Span.now_ns () < !deadline do
    if Span.now_ns () >= !next_setup then begin
      let t0 = Span.now_ns () in
      ignore (burst ());
      deadline := Int64.add !deadline (Int64.sub (Span.now_ns ()) t0);
      next_setup := after setup_every_s
    end;
    let id = !attempted in
    let recording = traced && id mod 2 = 1 in
    Gc.compact ();
    Span.set_op id;
    Span.set_recording recording;
    let g0 = Gc.quick_stat () in
    let t0 = Span.now_ns () in
    let outcome = try Ok (Span.with_ "op" inst.W.op) with e -> Error (Printexc.to_string e) in
    let t1 = Span.now_ns () in
    let g1 = Gc.quick_stat () in
    incr attempted;
    Span.count "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    Span.count "gc.major_collections"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    let verdict =
      Result.bind outcome (fun o ->
          try o.W.check () with e -> Error (Printexc.to_string e))
    in
    (match (verdict, outcome) with
    | Ok (), Ok o ->
        let dt = Span.seconds t0 t1 in
        if recording then traced_s := dt :: !traced_s
        else begin
          untraced := dt :: !untraced;
          rates := o.W.rates :: !rates
        end
    | Error msg, _ | _, Error msg ->
        incr failed;
        if !failed <= 3 then Printf.eprintf "perfbench: op %d failed: %s\n%!" id msg);
    if recording then inst.W.replay ();
    Span.set_recording false
  done;
  ( inst,
    { setups = Array.of_list !setups;
      rounds = !rounds;
      attempted = !attempted;
      failed = !failed;
      untraced = Array.of_list !untraced;
      traced = Array.of_list !traced_s;
      rates = !rates } )

let end_to_end_values m =
  [ ("setup_s", Summary.median m.setups);
    ("op_p50_s", Summary.median m.untraced);
    ("op_p90_s", Summary.p90 m.untraced);
    ("peak_rss_mb", peak_rss_mb ()) ]

let per_layer_values m =
  let per_op = Span.per_op () in
  let rows keep = List.filter_map (fun (op, r) -> if keep op then Some r else None) per_op in
  let base =
    Summary.medians (rows (fun op -> op < 0))
    @ Summary.medians (rows (fun op -> op >= 0))
    @ Summary.medians m.rates
  in
  let get k = Option.value (List.assoc_opt k base) ~default:0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let evals = get "ecm.cache_misses" in
  let sim_points = get "measure.sim_points" in
  let derived =
    [ ("ecm.evals", evals);
      ( "ecm.eval_us",
        1e6
        *. ratio
             (get "ecm.rank_all_s" +. get "ecm.rank_partitions_s" -. get "lint.schedule_s"
             +. get "offsite.best_static_config_s" +. get "ecm.predict_s")
             evals );
      ("ecm.cache_hit_ratio", ratio (get "ecm.cache_hits") (get "ecm.cache_hits" +. evals));
      ( "offsite.self_s",
        if get "offsite.evaluate_s" > 0.0 then
          get "offsite.evaluate_s" -. get "offsite.best_static_config_s"
          -. get "ecm.predict_s" -. get "measure.stencil_sweep_s"
        else 0.0 );
      ("measure.sim_mlups", ratio sim_points (get "measure.stencil_sweep_s") /. 1e6);
      ("cachesim.l1l2_lines_per_cl", ratio (get "cachesim.l1l2_lines") sim_points);
      ("cachesim.l2l3_lines_per_cl", ratio (get "cachesim.l2l3_lines") sim_points);
      ("cachesim.l3mem_lines_per_cl", ratio (get "cachesim.l3mem_lines") sim_points);
      ( "trace.overhead_pct",
        100.0 *. (ratio (Summary.median m.traced) (Summary.median m.untraced) -. 1.0) ) ]
  in
  List.map
    (fun (name, _) ->
      ( name,
        match List.assoc_opt name derived with Some v -> v | None -> get name ))
    per_layer

let result_line ~correct ~attempted ~failed metrics units =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Num (List.assoc name metrics));
                        ("unit", Json.Str unit) ] ))
                units) ) ])

let print_metrics ~units values =
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> Printf.printf "  %-30s %14.6g %s\n" name v unit
      | None -> ())
    units

let bench (w : W.t) ~seed ~seconds ~traced =
  let loop_start = host_loop_ms () in
  let inst, m = run w ~seconds ~traced in
  let loop_end = host_loop_ms () in
  let units = if traced then per_layer else end_to_end in
  let values =
    if traced then per_layer_values m
    else end_to_end_values m @ Summary.medians m.rates
  in
  print_endline
    ("meta: "
    ^ Json.to_string
        (Json.Obj
           [ ("workload", Json.Str w.W.name);
             ("why", Json.Str w.W.why);
             ("seed", Json.Int seed);
             ("seconds", Json.Num seconds);
             ("trace", Json.Bool traced);
             ("host", host_meta ());
             ("host_loop_ms", Json.Arr [ Json.Num loop_start; Json.Num loop_end ]);
             ("working_set", Json.Obj (inst.W.working_set ()));
             ("setup_bursts", Json.Int (Array.length m.setups));
             ("setup_rounds", Json.Int m.rounds);
             ("warmup_ops", Json.Int warmup_ops);
             ("untraced_ops", Json.Int (Array.length m.untraced));
             ("p90_has_ten_beyond", Json.Bool (Array.length m.untraced >= 100));
             ("traced_ops", Json.Int (Array.length m.traced)) ]));
  Printf.printf "%s: %d ops attempted, %d failed\n" w.W.name m.attempted m.failed;
  print_metrics
    ~units:(if traced then units else units @ [ ("mlups_plan", "MLUP/s"); ("mlups_codegen", "MLUP/s") ])
    values;
  if traced then begin
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" w.W.name seed) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Span.to_chrome (Span.spans ())));
    Printf.printf "trace: %s\n" path
  end;
  print_endline
    (result_line
       ~correct:(m.failed = 0 && m.attempted > 0)
       ~attempted:m.attempted ~failed:m.failed values units)

(* Two checked ops of every workload, one of them traced. *)
let smoke workloads =
  let passed =
    List.map
      (fun (w : W.t) ->
        let _, m = run w ~seconds:0.0 ~traced:true in
        ignore (per_layer_values m);
        Printf.printf "smoke %s: %d ops, %d failed\n%!" w.W.name m.attempted m.failed;
        m.failed = 0)
      workloads
  in
  exit (if List.for_all Fun.id passed then 0 else 1)

let () =
  List.iter (fun (k, v) -> Unix.putenv k v) pinned;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and smoke_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME rank, ode or program");
      ("--seed", Arg.Set_int seed, "N recorded with the run");
      ("--seconds", Arg.Set_float seconds, "S how long ops run");
      ("--trace", Arg.Set_int trace, "0|1 time end to end (0) or by layer (1)");
      ("--smoke", Arg.Set smoke_mode, " run a few checked ops of every workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke W.all;
  match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w -> bench w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
