(* yasksite command-line interface: describe machines and kernels, run
   the analytic model, measure on the simulated machine, autotune, and
   rank ODE implementation variants. *)
open Cmdliner
open Yasksite
module Clock = Yasksite_util.Clock
module Json = Yasksite_util.Json

(* [f ()] and its wall-clock seconds on the library's monotonic clock. *)
let timed f =
  let t0 = Clock.now Clock.system in
  let r = f () in
  (r, Clock.now Clock.system -. t0)

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)

let machine_of_string ~scale name =
  let base =
    if Filename.check_suffix name ".machine" then
      match Machine_file.load name with
      | Ok m -> Ok m
      | Error e -> Error (`Msg (name ^ ": " ^ e))
    else begin
      match String.lowercase_ascii name with
      | "clx" | "cascadelake" | "cascade-lake" -> Ok Machine.cascade_lake
      | "rome" -> Ok Machine.rome
      | "test" | "testchip" -> Ok Machine.test_chip
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown machine %S (clx|rome|test, or a *.machine file)"
                 name))
    end
  in
  Result.map
    (fun m -> if scale > 1 then Machine.scaled ~factor:scale m else m)
    base

let dims_of_string s =
  try
    let parts = String.split_on_char 'x' s in
    let dims = Array.of_list (List.map int_of_string parts) in
    if Array.length dims < 1 || Array.length dims > 3 then
      Error (`Msg "dims must have rank 1..3")
    else Ok dims
  with _ -> Error (`Msg (Printf.sprintf "cannot parse dims %S (e.g. 96x96x96)" s))

let machine_arg =
  let doc =
    "Target machine: clx (Cascade Lake), rome (AMD Rome), test, or a path \
     to a *.machine description file."
  in
  Arg.(value & opt string "clx" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let scale_arg =
  let doc =
    "Shrink the machine's caches by this factor (simulation scale); use 1 \
     for the full-size machine (model-only commands)."
  in
  Arg.(value & opt int 8 & info [ "scale" ] ~docv:"N" ~doc)

let stencil_arg =
  let doc = "Stencil name from the suite (see the stencils command)." in
  Arg.(value & opt string "heat-3d-7pt" & info [ "s"; "stencil" ] ~docv:"NAME" ~doc)

let expr_arg =
  let doc =
    "Custom stencil expression instead of a suite stencil, e.g. \
     \"0.25*(f0(x-1)+f0(x+1))+0.5*f0(x)\" (rank inferred from --dims)."
  in
  Arg.(value & opt (some string) None & info [ "expr" ] ~docv:"EXPR" ~doc)

let dims_arg =
  let doc = "Grid dimensions, e.g. 96x96x96 (slowest dimension first)." in
  Arg.(value & opt string "64x64x64" & info [ "d"; "dims" ] ~docv:"DIMS" ~doc)

let threads_arg =
  let doc = "Active cores." in
  Arg.(value & opt int 1 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let block_arg =
  let doc = "Spatial block extents, e.g. 0x16x128 (0 = unblocked dim)." in
  Arg.(value & opt (some string) None & info [ "block" ] ~docv:"DIMS" ~doc)

let fold_arg =
  let doc = "Vector fold extents, e.g. 1x2x4 (product = SIMD lanes)." in
  Arg.(value & opt (some string) None & info [ "fold" ] ~docv:"DIMS" ~doc)

let wavefront_arg =
  let doc = "Temporal (wavefront) blocking depth." in
  Arg.(value & opt int 1 & info [ "wavefront"; "wf" ] ~docv:"N" ~doc)

let nt_arg =
  let doc = "Use non-temporal (streaming) stores for the output." in
  Arg.(value & flag & info [ "nt"; "streaming-stores" ] ~doc)

let stagger_arg =
  let doc =
    "Wavefront plane shift per time step (default: streamed-dimension \
     radius + 1, the smallest provably legal stagger). The \
     schedule-legality analyzer rejects staggers below that bound."
  in
  Arg.(value & opt (some int) None & info [ "stagger" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Worker domains for parallel ranking, tuning and sweeping (default: \
     the YASKSITE_DOMAINS environment variable, else the runtime's \
     recommended domain count). Results are independent of this setting."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let sanitize_arg =
  let doc =
    "Run every measured sweep through the shadow-memory sanitizer: a \
     legal schedule measures identically, an illegal one aborts with a \
     YS45x trap instead of silently producing garbage."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let backend_arg =
  let backend =
    Arg.enum
      [ ("plan", Engine.Sweep.Plan_backend);
        ("codegen", Engine.Sweep.Codegen_backend) ]
  in
  let doc =
    "Execution backend for sweeps and program stages: $(b,plan) (the \
     kernel-plan driver — row-hoisted table-addressed loops, the \
     default) or $(b,codegen) (kernels specialized per plan \
     fingerprint, compiled out of process and cached; falls back to \
     plan when no OCaml toolchain is available). Both produce \
     bit-identical results — including multi-stage program runs. \
     Default: the YASKSITE_BACKEND environment variable, else plan."
  in
  Arg.(
    value
    & opt (some backend) None
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* Explicit --domains gets a private pool (shut down on the way out);
   otherwise the environment-sized shared pool is used. *)
let with_domains domains f =
  match domains with
  | None -> f (Pool.shared ())
  | Some d -> Pool.with_pool ~domains:d f

(* Tuning commands persist by default: the shared model cache spills
   through the default store and safety certificates are written
   through, so a second invocation warm-starts from disk. [None] when
   YASKSITE_NO_STORE disables persistence — everything then runs
   purely in memory, with identical results. *)
let attach_default_store cache =
  match Store.default () with
  | None -> None
  | Some s ->
      Model_cache.attach_store cache s;
      Engine.Cert.set_store (Some s);
      Engine.Native.set_store (Some s);
      Some s

let stats_json_arg =
  let doc =
    "Emit one machine-readable JSON line of cache and store counters at \
     the end (suppresses the human-readable cache summary)."
  in
  Arg.(value & flag & info [ "stats-json" ] ~doc)

let stats_json_line ~cache ~store =
  let cs = Model_cache.stats cache and k = Engine.Native.stats () in
  let store_part : Json.t =
    match store with
    | None -> Null
    | Some s ->
        let ss = Store.stats s and u = Store.usage s in
        Obj
          [ ("root", String (Store.root s));
            ("active", Bool (Store.active s));
            ("writable", Bool (Store.writable s));
            ("hits", Int ss.Store.hits);
            ("misses", Int ss.Store.misses);
            ("writes", Int ss.Store.writes);
            ("write_errors", Int ss.Store.write_errors);
            ("quarantined", Int ss.Store.quarantined);
            ("locks_broken", Int ss.Store.locks_broken);
            ("entries", Int u.Store.entries);
            ("bytes", Int u.Store.bytes);
            ("corrupt", Int u.Store.corrupt) ]
  in
  Json.to_string
    (Obj
       [ ( "cache",
           Obj
             [ ("hits", Int cs.Model_cache.hits);
               ("misses", Int cs.Model_cache.misses);
               ("entries", Int cs.Model_cache.entries);
               ("store_hits", Int cs.Model_cache.store_hits);
               ("store_misses", Int cs.Model_cache.store_misses) ] );
         ("store", store_part);
         ( "kernels",
           Obj
             Engine.Native.
               [ ("compiles", Int k.compiles);
                 ("compile_errors", Int k.compile_errors);
                 ("store_hits", Int k.store_hits);
                 ("loads", Int k.loads);
                 ("load_errors", Int k.load_errors);
                 ("fallbacks", Int k.fallbacks);
                 ("gate_rejections", Int k.gate_rejections);
                 ("validations", Int k.validations);
                 ("validator_rejections", Int k.validator_rejections) ] ) ])

(* The shared end-of-command summary of tune/ode: one JSON line under
   --stats-json, the familiar human cache line otherwise. *)
let print_run_stats ~stats_json ~cache ~store =
  if stats_json then print_endline (stats_json_line ~cache ~store)
  else begin
    let cs = Model_cache.stats cache in
    Printf.printf
      "\nmodel cache: %d hits / %d misses (%.0f%% hit rate, %d entries)\n"
      cs.Model_cache.hits cs.Model_cache.misses
      (100.0 *. Model_cache.hit_rate cache)
      cs.Model_cache.entries;
    (match store with
    | Some s when Store.active s ->
        let ss = Store.stats s in
        Printf.printf
          "store: %d hits / %d misses, %d writes (%d errors, %d \
           quarantined) at %s\n"
          ss.Store.hits ss.Store.misses ss.Store.writes ss.Store.write_errors
          ss.Store.quarantined (Store.root s)
    | _ -> ());
    let ks = Engine.Native.stats () in
    if
      ks.Engine.Native.compiles + ks.Engine.Native.store_hits
      + ks.Engine.Native.loads + ks.Engine.Native.fallbacks
      > 0
    then
      Printf.printf
        "kernel cache: %d compiled, %d from store, %d fallbacks\n"
        ks.Engine.Native.compiles ks.Engine.Native.store_hits
        ks.Engine.Native.fallbacks
  end

let ( let* ) = Result.bind

let build_config ?stagger ~block ~fold ~wavefront ~threads ~streaming_stores
    () =
  let parse_opt = function
    | None -> Ok None
    | Some s -> Result.map (fun d -> Some d) (dims_of_string s)
  in
  let* block = parse_opt block in
  let* fold = parse_opt fold in
  try
    Ok
      (Config.v ?block ?fold ?wavefront_stagger:stagger ~wavefront ~threads
         ~streaming_stores ())
  with Invalid_argument m -> Error (`Msg m)

let build_kernel ?expr ~machine ~scale ~stencil ~dims () =
  let* m = machine_of_string ~scale machine in
  let* dims = dims_of_string dims in
  let* spec =
    match expr with
    | Some src -> (
        match
          Stencil.Parser.parse_spec ~name:"custom" ~rank:(Array.length dims)
            src
        with
        | Ok s -> Ok s
        | Error msg -> Error (`Msg ("cannot parse --expr: " ^ msg)))
    | None -> (
        match Stencil.Suite.find stencil with
        | s -> Ok (Stencil.Suite.resolve_defaults s)
        | exception Not_found ->
            Error (`Msg (Printf.sprintf "unknown stencil %S" stencil)))
  in
  try Ok (kernel ~machine:m ~dims spec)
  with Invalid_argument m -> Error (`Msg m)

let or_die = function
  | Ok x -> x
  | Error (`Msg m) ->
      prerr_endline ("yasksite: " ^ m);
      exit 2

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Command boundary: parser and model errors must not escape as raw
   backtraces. Lint-gate refusals keep the lint exit code (1); other
   input errors get their own code (3; 2 is argument parsing). *)
let protect f =
  try f () with
  | Lint.Gate_error msg ->
      prerr_endline ("yasksite: lint: " ^ first_line msg);
      exit 1
  | Engine.Sanitizer.Trap _ as e ->
      prerr_endline ("yasksite: sanitizer: " ^ first_line (Printexc.to_string e));
      exit 1
  | Failure msg ->
      prerr_endline ("yasksite: error: " ^ first_line msg);
      exit 3
  | Invalid_argument msg ->
      prerr_endline ("yasksite: error: " ^ first_line msg);
      exit 3

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let machines_cmd =
  let run () =
    List.iter
      (fun m ->
        Yasksite_util.Table.print (Machine.describe m);
        print_newline ())
      [ Machine.cascade_lake; Machine.rome; Machine.test_chip ]
  in
  Cmd.v (Cmd.info "machines" ~doc:"Describe the built-in machine models")
    Term.(const run $ const ())

let stencils_cmd =
  let show =
    let doc = "Also print the generated C-like kernel of this stencil." in
    Arg.(value & opt (some string) None & info [ "show" ] ~docv:"NAME" ~doc)
  in
  let run show =
    protect @@ fun () ->
    let tbl =
      Yasksite_util.Table.create ~title:"Stencil suite"
        ~columns:
          (List.map
             (fun c -> (c, Yasksite_util.Table.Left))
             [ "name"; "rank"; "shape"; "radius"; "flops"; "loads";
               "B_c [B/LUP]"; "intensity" ])
        ()
    in
    List.iter
      (fun s ->
        Yasksite_util.Table.add_row tbl
          (Stencil.Analysis.describe (Stencil.Analysis.of_spec s)))
      Stencil.Suite.all;
    Yasksite_util.Table.print tbl;
    match show with
    | None -> ()
    | Some name ->
        let s =
          or_die (build_kernel ~machine:"test" ~scale:1 ~stencil:name
                    ~dims:"8x8x8" ())
        in
        ignore s;
        print_newline ();
        print_string
          (Stencil.Spec.to_c
             (Stencil.Suite.resolve_defaults (Stencil.Suite.find name)))
  in
  Cmd.v (Cmd.info "stencils" ~doc:"List the stencil suite and its analysis")
    Term.(const run $ show)

let predict_cmd =
  let verbose =
    let doc = "Show the full model derivation (kerncraft-style report)." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let run machine scale stencil expr dims threads block fold wavefront nt
      verbose =
    protect @@ fun () ->
    let k = or_die (build_kernel ?expr ~machine ~scale ~stencil ~dims ()) in
    let config =
      or_die
        (build_config ~block ~fold ~wavefront ~threads ~streaming_stores:nt ())
    in
    let p = predict k ~config in
    if verbose then begin
      print_string (Model.explain k.machine k.info p);
      exit 0
    end;
    print_endline (Model.summary p);
    let tbl =
      Yasksite_util.Table.create ~title:"Layer conditions / traffic"
        ~columns:
          [ ("boundary", Yasksite_util.Table.Left);
            ("condition", Yasksite_util.Table.Left);
            ("lines/CL", Yasksite_util.Table.Right);
            ("B/LUP", Yasksite_util.Table.Right);
            ("T_data [cy/CL]", Yasksite_util.Table.Right) ]
        ()
    in
    Array.iteri
      (fun i (b : Lc.boundary) ->
        let cond =
          match b.Lc.condition with
          | Lc.All_fits -> "fits"
          | Lc.Outer_reuse -> "3D-LC holds"
          | Lc.Row_reuse -> "2D-LC holds"
          | Lc.No_reuse -> "broken"
        in
        Yasksite_util.Table.add_row tbl
          [ b.Lc.level_name ^ "<->next"; cond;
            Yasksite_util.Table.cell_f b.Lc.lines_per_cl;
            Yasksite_util.Table.cell_f b.Lc.bytes_per_lup;
            Yasksite_util.Table.cell_f p.Model.t_data.(i) ])
      p.Model.boundaries;
    Yasksite_util.Table.print tbl
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Evaluate the ECM model for a kernel configuration (no execution)")
    Term.(
      const run $ machine_arg $ scale_arg $ stencil_arg $ expr_arg $ dims_arg
      $ threads_arg $ block_arg $ fold_arg $ wavefront_arg $ nt_arg $ verbose)

(* Untraced wall-clock sweep, sequential and on the pool: exercises the
   domain partitioning end to end and checks the outputs are
   bit-identical. *)
let parallel_sweep_demo ?(sanitize = false) k ~config pool =
  (* One sanitizer per run: each [make] call's private address space
     reuses the same virtual bases, so shadow state must not be shared. *)
  let san () = if sanitize then Some (Engine.Sanitizer.create ()) else None in
  let halo = Stencil.Analysis.halo k.info in
  let layout =
    match config.Config.fold with
    | None -> Grid.Linear
    | Some f -> Grid.Folded (Array.copy f)
  in
  let make () =
    let rng = Yasksite_util.Prng.create ~seed:7 in
    let space = Grid.fresh_space () in
    let fresh () =
      let g = Grid.create ~space ~halo ~layout ~dims:k.dims () in
      Grid.fill g ~f:(fun _ ->
          Yasksite_util.Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
      Grid.halo_dirichlet g 0.0;
      g
    in
    let inputs =
      Array.init k.spec.Stencil.Spec.n_fields (fun _ -> fresh ())
    in
    let output = fresh () in
    (inputs, output)
  in
  let inputs_s, output_s = make () in
  let _, seq_s =
    timed (fun () ->
        Engine.Sweep.run ?sanitize:(san ()) ~config k.spec ~inputs:inputs_s
          ~output:output_s)
  in
  let inputs_p, output_p = make () in
  let _, par_s =
    timed (fun () ->
        Engine.Sweep.run ~pool ?sanitize:(san ()) ~config k.spec
          ~inputs:inputs_p ~output:output_p)
  in
  let diff = Grid.max_abs_diff output_s output_p in
  Printf.printf
    "parallel sweep (%d domains): sequential %.4f s, parallel %.4f s \
     (%.2fx), max |diff| %g\n"
    (Pool.size pool) seq_s par_s
    (if par_s > 0.0 then seq_s /. par_s else 0.0)
    diff

let run_cmd =
  let run machine scale stencil expr dims threads block fold wavefront nt
      stagger domains sanitize backend stats_json =
    protect @@ fun () ->
    Option.iter Engine.Sweep.set_default_backend backend;
    (* Eager backend validation: a bad YASKSITE_BACKEND fails here with
       the one-line legal-backends message instead of mid-measurement.
       (--backend, validated by the parser, overrides the variable.) *)
    ignore (Engine.Sweep.default_backend () : Engine.Sweep.backend);
    (* The codegen backend warm-starts from the persistent store: a
       second run of the same kernel loads the compiled .cmxs instead
       of invoking the compiler (YASKSITE_NO_STORE opts out). *)
    let cache = Model_cache.shared in
    let store = attach_default_store cache in
    let k = or_die (build_kernel ?expr ~machine ~scale ~stencil ~dims ()) in
    let config =
      or_die
        (build_config ?stagger ~block ~fold ~wavefront ~threads
           ~streaming_stores:nt ())
    in
    print_string (report ~sanitize k ~config);
    if domains <> None then
      with_domains domains (fun pool ->
          parallel_sweep_demo ~sanitize k ~config pool);
    if stats_json then print_endline (stats_json_line ~cache ~store)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Measure a kernel configuration on the simulated machine and \
             compare with the prediction")
    Term.(
      const run $ machine_arg $ scale_arg $ stencil_arg $ expr_arg $ dims_arg
      $ threads_arg $ block_arg $ fold_arg $ wavefront_arg $ nt_arg
      $ stagger_arg $ domains_arg $ sanitize_arg $ backend_arg
      $ stats_json_arg)

let tune_cmd =
  let top =
    let doc = "How many top-ranked configurations to list." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)
  in
  let empirical_arg =
    let doc =
      "Also run the resilient empirical sweep over the advisor space \
       (every candidate is executed, surviving the injected fault plan)."
    in
    Arg.(value & flag & info [ "empirical" ] ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed of the deterministic fault plan." in
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let fault_rate_arg =
    let doc = "Per-run transient-failure probability injected into the \
               empirical sweep." in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let noise_arg =
    let doc = "Sigma of the multiplicative lognormal measurement noise \
               (enables median-of-5 robust repeats)." in
    Arg.(value & opt float 0.0 & info [ "noise" ] ~docv:"SIGMA" ~doc)
  in
  let retries_arg =
    let doc = "Maximum attempts per candidate measurement." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc = "Wall budget for the whole empirical sweep, in seconds \
               (backoff and timeout charges included)." in
    Arg.(value & opt (some float) None & info [ "budget-s" ] ~docv:"S" ~doc)
  in
  let resume_arg =
    let doc =
      "Checkpoint file: progress is saved after every candidate and a \
       matching file resumes the sweep without re-running completed \
       candidates."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run machine scale stencil expr dims threads top empirical fault_seed
      fault_rate noise retries budget resume domains sanitize backend
      stats_json =
    protect @@ fun () ->
    Option.iter Engine.Sweep.set_default_backend backend;
    (* Eager backend validation: a bad YASKSITE_BACKEND fails here with
       the one-line legal-backends message instead of mid-measurement.
       (--backend, validated by the parser, overrides the variable.) *)
    ignore (Engine.Sweep.default_backend () : Engine.Sweep.backend);
    let k = or_die (build_kernel ?expr ~machine ~scale ~stencil ~dims ()) in
    with_domains domains @@ fun pool ->
    let cache = Model_cache.shared in
    let store = attach_default_store cache in
    let legal = Lint.Schedule.legal k.info ~dims:k.dims in
    let ranked =
      Advisor.rank_all ~cache ~pool ~filter:legal k.machine k.info ~dims:k.dims
        ~threads
    in
    let full_size =
      List.length
        (Advisor.space k.machine ~dims:k.dims ~threads
           ~rank:k.spec.Stencil.Spec.rank)
    in
    let pruned = full_size - List.length ranked in
    let tbl =
      Yasksite_util.Table.create
        ~title:(Printf.sprintf "Analytic ranking (top %d of %d)" top
                  (List.length ranked))
        ~columns:
          [ ("#", Yasksite_util.Table.Right);
            ("config", Yasksite_util.Table.Left);
            ("pred GLUP/s", Yasksite_util.Table.Right) ]
        ()
    in
    List.iteri
      (fun i (c, p) ->
        if i < top then
          Yasksite_util.Table.add_row tbl
            [ string_of_int (i + 1); Config.describe c;
              Yasksite_util.Table.cell_f (p.Model.lups_chip /. 1e9) ])
      ranked;
    Yasksite_util.Table.print tbl;
    if pruned > 0 then
      Printf.printf
        "schedule analyzer: pruned %d of %d candidates before ranking\n"
        pruned full_size;
    (match ranked with
    | (best, _) :: _ ->
        print_newline ();
        print_string (report ~sanitize k ~config:best)
    | [] -> ());
    if empirical || fault_rate > 0.0 || noise > 0.0 || resume <> None then begin
      let faults =
        Faults.Plan.v ~seed:fault_seed ~fail_rate:fault_rate
          ~noise_sigma:noise ()
      in
      let policy =
        Faults.Policy.v ~max_attempts:retries ?pass_budget_s:budget
          ~repeats:(if noise > 0.0 then 5 else 1)
          ()
      in
      let r =
        Tuner.tune_empirical ~faults ~policy ?checkpoint:resume ?store ~pool
          ~cache ~sanitize k.machine k.spec ~dims:k.dims ~threads
      in
      Printf.printf "\nresilient empirical sweep (%s, %d domains):\n"
        (Faults.Plan.describe faults) (Pool.size pool);
      if r.Tuner.pruned > 0 then
        Printf.printf "  pruned      %d statically illegal candidate(s)\n"
          r.Tuner.pruned;
      Printf.printf "  chosen      %s%s\n"
        (Config.describe r.Tuner.chosen)
        (if r.Tuner.degraded then "  [degraded: analytic fallback]" else "");
      Printf.printf "  measured    %.2f GLUP/s\n"
        (r.Tuner.measured_lups /. 1e9);
      Printf.printf "  kernel runs %d (attempts %d), skipped %d, wall %.2f s\n"
        r.Tuner.kernel_runs r.Tuner.attempts
        (List.length r.Tuner.skipped)
        r.Tuner.wall_seconds;
      List.iteri
        (fun i (s : Tuner.skipped) ->
          if i < 5 then
            Printf.printf "  skipped     %s after %d attempts: %s\n"
              (Config.describe s.Tuner.s_config)
              s.Tuner.s_attempts s.Tuner.s_reason)
        r.Tuner.skipped;
      match resume with
      | Some path -> Printf.printf "  checkpoint  %s\n" path
      | None -> ()
    end;
    print_run_stats ~stats_json ~cache ~store
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Rank the tuning space analytically and validate the winner \
             (optionally against a fault-injected empirical sweep)")
    Term.(
      const run $ machine_arg $ scale_arg $ stencil_arg $ expr_arg $ dims_arg
      $ threads_arg $ top $ empirical_arg $ fault_seed_arg $ fault_rate_arg
      $ noise_arg $ retries_arg $ budget_arg $ resume_arg $ domains_arg
      $ sanitize_arg $ backend_arg $ stats_json_arg)

let scheme_name = function
  | `Unfused -> "unfused"
  | `Fused -> "fused"
  | `Mixed mask ->
      "mixed:"
      ^ String.concat ""
          (Array.to_list (Array.map (fun b -> if b then "f" else "u") mask))

let ode_cmd =
  let method_arg =
    let doc = "Explicit method name (euler, heun2, rk4, kutta38, dopri5...)." in
    Arg.(value & opt string "rk4" & info [ "method" ] ~docv:"NAME" ~doc)
  in
  let pde_arg =
    let doc = "PDE problem: heat1d, heat2d, heat3d or advection1d." in
    Arg.(value & opt string "heat2d" & info [ "pde" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc = "Interior grid points per dimension." in
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run machine scale mname pname n threads domains stats_json =
    protect @@ fun () ->
    let m = or_die (machine_of_string ~scale machine) in
    let tab =
      match Ode.Tableau.find mname with
      | t -> t
      | exception Not_found -> or_die (Error (`Msg ("unknown method " ^ mname)))
    in
    let pde =
      match pname with
      | "heat1d" -> Ode.Pde.heat ~rank:1 ~n ~alpha:1.0
      | "heat2d" -> Ode.Pde.heat ~rank:2 ~n ~alpha:1.0
      | "heat3d" -> Ode.Pde.heat ~rank:3 ~n ~alpha:1.0
      | "advection1d" -> Ode.Pde.advection_1d ~n ~velocity:1.0
      | _ -> or_die (Error (`Msg ("unknown pde " ^ pname)))
    in
    let h = 1e-5 in
    with_domains domains @@ fun pool ->
    let cache = Model_cache.shared in
    let store = attach_default_store cache in
    let candidates =
      Offsite.evaluate ~cache ?store ~pool m pde tab ~h ~threads
    in
    let tbl =
      Yasksite_util.Table.create
        ~title:
          (Printf.sprintf "Offsite variants: %s on %s, %s, %d threads" mname
             pde.Ode.Pde.name m.Machine.name threads)
        ~columns:
          [ ("variant", Yasksite_util.Table.Left);
            ("tuned", Yasksite_util.Table.Left);
            ("sweeps", Yasksite_util.Table.Right);
            ("pred ms/step", Yasksite_util.Table.Right);
            ("meas ms/step", Yasksite_util.Table.Right);
            ("err", Yasksite_util.Table.Right) ]
        ()
    in
    List.iter
      (fun (c : Offsite.candidate) ->
        Yasksite_util.Table.add_row tbl
          [ scheme_name c.variant.Offsite.Variant.scheme;
            (if c.tuned then "yes" else "no");
            string_of_int (Offsite.Variant.sweeps_per_step c.variant);
            Yasksite_util.Table.cell_f (1e3 *. c.predicted_step_seconds);
            Yasksite_util.Table.cell_f (1e3 *. c.measured_step_seconds);
            Yasksite_util.Table.cell_pct
              (Yasksite_util.Stats.rel_error
                 ~predicted:c.predicted_step_seconds
                 ~measured:c.measured_step_seconds) ])
      candidates;
    Yasksite_util.Table.print tbl;
    let q = Offsite.quality candidates in
    Printf.printf
      "ranking: kendall tau %.2f, top-1 %s, speedup of selected vs naive \
       %.2fx, mean |err| %.1f%%\n"
      q.Offsite.kendall
      (if q.Offsite.top1 then "correct" else "WRONG")
      q.Offsite.speedup_selected
      (100.0 *. q.Offsite.mean_abs_error);
    print_run_stats ~stats_json ~cache ~store
  in
  Cmd.v
    (Cmd.info "ode"
       ~doc:"Rank ODE implementation variants (the Offsite integration)")
    Term.(
      const run $ machine_arg $ scale_arg $ method_arg $ pde_arg $ n_arg
      $ threads_arg $ domains_arg $ stats_json_arg)

let lint_cmd =
  let inputs_arg =
    let doc =
      "Artifacts to lint: *.machine files, files holding a kernel \
       expression, suite stencil names, or literal kernel expressions."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"INPUT" ~doc)
  in
  let rank_arg =
    let doc =
      "Kernel rank for expression inputs (default: the rank of --dims)."
    in
    Arg.(value & opt (some int) None & info [ "rank" ] ~docv:"N" ~doc)
  in
  let rules_arg =
    let doc = "Print the rule table (code, severity, summary) and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let quiet_arg =
    let doc = "Only set the exit status; print nothing." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let schedule_arg =
    let doc =
      "Also run the schedule-legality analyzer (YS4xx) on each kernel \
       input: the configuration built from the tuning flags is judged \
       against the kernel's dependence distances at --dims."
    in
    Arg.(value & flag & info [ "schedule" ] ~doc)
  in
  let plan_arg =
    let doc =
      "Also run the plan-IR dataflow verifier (YS5xx) on each kernel \
       input: the lowered kernel plan is checked for access-table bounds \
       safety, stack safety, dead loads and agreement of its static \
       FLOP/byte counts with the kernel analysis. Bounds are judged \
       against grids allocated with the kernel's own halo at --dims \
       (proxy extents when the ranks differ)."
    in
    Arg.(value & flag & info [ "plan" ] ~doc)
  in
  let native_arg =
    let doc =
      "Also run the YS6xx translation validator on each kernel input: \
       the source the codegen backend would emit for the lowered plan \
       is parsed back and statically proved equivalent to the plan \
       (op-for-op IEEE-754 arithmetic and address arithmetic). Pure \
       static analysis — no compiler is invoked."
    in
    Arg.(value & flag & info [ "native" ] ~doc)
  in
  let miscompile_arg =
    let doc =
      "With --native: inject a seeded miscompile of this class into the \
       emitted source before validation, to demonstrate (or CI-check) \
       that the validator rejects it. Classes: coeff-perturb, \
       swap-assoc, offset-off-by-one, drop-term, wrong-slot, \
       point-row-diverge, rename-registration."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "miscompile" ] ~docv:"CLASS" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed for --miscompile site selection." in
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,text) (compiler-style, default) or $(b,json) \
       (one stable machine-readable report for the whole run)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run machine dims rank rules quiet schedule plan native miscompile
      fault_seed format threads block fold wavefront nt stagger inputs =
    protect @@ fun () ->
    if rules then begin
      (match format with
      | `Json -> print_string (Lint.Diagnostic.rules_to_json Lint.rules)
      | `Text -> print_string (Lint.Diagnostic.rules_to_text Lint.rules));
      exit 0
    end;
    let miscompile_cls =
      match miscompile with
      | None -> None
      | Some name -> (
          match Faults.Miscompile.class_of_name name with
          | Some _ as c -> c
          | None ->
              or_die
                (Error
                   (`Msg
                     (Printf.sprintf
                        "unknown miscompile class %S (one of: %s)" name
                        (String.concat ", "
                           (List.map Faults.Miscompile.class_name
                              Faults.Miscompile.classes))))))
    in
    let dims = or_die (dims_of_string dims) in
    let rank = match rank with Some r -> r | None -> Array.length dims in
    let worst = ref 0 in
    (* JSON mode accumulates every finding and emits one report at the
       end; text mode prints per input as before. *)
    let collected = ref [] in
    let report ?src ~origin diagnostics =
      worst := max !worst (Lint.exit_code diagnostics);
      match format with
      | `Json ->
          List.iter
            (fun d -> collected := (origin, src, d) :: !collected)
            diagnostics
      | `Text ->
          if not quiet then
            if diagnostics = [] then Printf.printf "%s: clean\n" origin
            else begin
              print_string
                (Lint.Diagnostic.render_list ?src ~origin diagnostics);
              Printf.printf "%s: %s\n" origin
                (Lint.Diagnostic.summary diagnostics)
            end
    in
    (* When tuning flags are given, also lint the resulting configuration
       against each kernel input; the machine is only resolved then. *)
    let config_given =
      block <> None || fold <> None || wavefront <> 1 || threads <> 1 || nt
      || stagger <> None
    in
    let lint_config spec ~origin =
      if config_given then begin
        let m = or_die (machine_of_string ~scale:1 machine) in
        let config =
          or_die
            (build_config ?stagger ~block ~fold ~wavefront ~threads
               ~streaming_stores:nt ())
        in
        report
          ~origin:(origin ^ " (config)")
          (Lint.Config.config m (Stencil.Analysis.of_spec spec) ~dims config)
      end;
      if schedule then begin
        let config =
          or_die
            (build_config ?stagger ~block ~fold ~wavefront ~threads
               ~streaming_stores:nt ())
        in
        report
          ~origin:(origin ^ " (schedule)")
          (Lint.Schedule.schedule (Stencil.Analysis.of_spec spec) ~dims
             config)
      end;
      if plan then begin
        let info = Stencil.Analysis.of_spec spec in
        let p = Stencil.Lower.lower spec in
        let halo = Stencil.Analysis.halo info in
        let krank = spec.Stencil.Spec.rank in
        (* Bounds are extent-independent (|offset| <= halo per dim), so
           proxy extents are as good as --dims when the ranks differ. *)
        let gdims =
          if Array.length dims = krank then dims
          else Array.init krank (fun i -> max 8 ((2 * halo.(i)) + 1))
        in
        let space = Grid.fresh_space () in
        let mk () = Grid.create ~space ~halo ~dims:gdims () in
        let inputs =
          Array.init spec.Stencil.Spec.n_fields (fun _ -> mk ())
        in
        report
          ~origin:(origin ^ " (plan)")
          (Lint.Plan.check ~info p ~inputs ~output:(mk ()))
      end;
      if native then begin
        let info = Stencil.Analysis.of_spec spec in
        let p = Stencil.Lower.lower spec in
        let halo = Stencil.Analysis.halo info in
        let krank = spec.Stencil.Spec.rank in
        (* Same proxy-extent rule as --plan: the proof is
           extent-independent. *)
        let gdims =
          if Array.length dims = krank then dims
          else Array.init krank (fun i -> max 8 ((2 * halo.(i)) + 1))
        in
        let space = Grid.fresh_space () in
        let mk () = Grid.create ~space ~halo ~dims:gdims () in
        let inputs =
          Array.init spec.Stencil.Spec.n_fields (fun _ -> mk ())
        in
        let output = mk () in
        let v = Stencil.Codegen.variant_of ~plan:p ~inputs ~output in
        match Stencil.Codegen.source ~plan:p v with
        | Error reason ->
            Printf.eprintf
              "yasksite: lint: %s: codegen emits no kernel for this plan \
               (%s); nothing to validate\n"
              origin reason
        | Ok src ->
            let src =
              match miscompile_cls with
              | None -> src
              | Some cls ->
                  or_die
                    (Result.map_error
                       (fun e -> `Msg (origin ^ ": miscompile: " ^ e))
                       (Faults.Miscompile.mutate ~seed:fault_seed cls src))
            in
            report ~src
              ~origin:(origin ^ " (native)")
              (Lint.Native.check ~plan:p ~variant:v ~inputs src)
      end
    in
    let lint_kernel_source ?src_origin ~origin src =
      report ~src ~origin (Lint.Kernel.source ~rank src);
      match
        Stencil.Parser.parse_spec
          ~name:(Option.value src_origin ~default:"expr")
          ~rank src
      with
      | Ok spec -> lint_config spec ~origin
      | Error _ -> ()
    in
    let lint_one input =
      if Filename.check_suffix input ".machine" then
        report ~origin:input
          ?src:
            (match In_channel.with_open_text input In_channel.input_all with
            | src -> Some src
            | exception Sys_error _ -> None)
          (Lint.Machine.file input)
      else if Sys.file_exists input then
        let src =
          String.trim
            (In_channel.with_open_text input In_channel.input_all)
        in
        lint_kernel_source ~src_origin:input ~origin:input src
      else begin
        match Stencil.Suite.find input with
        | s ->
            let spec = Stencil.Suite.resolve_defaults s in
            report ~origin:input (Lint.Kernel.spec spec);
            lint_config spec ~origin:input
        | exception Not_found -> lint_kernel_source ~origin:"expr" input
      end
    in
    if inputs = [] then
      or_die
        (Error
           (`Msg
             "nothing to lint (pass expressions, files or stencil names, or \
              --rules)"));
    List.iter lint_one inputs;
    (match format with
    | `Json when not quiet ->
        print_endline (Lint.Diagnostic.report_to_json (List.rev !collected))
    | _ -> ());
    exit !worst
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically check kernels, machine files and configurations \
             before any model run (exit 1 on errors)")
    Term.(
      const run $ machine_arg $ dims_arg $ rank_arg $ rules_arg $ quiet_arg
      $ schedule_arg $ plan_arg $ native_arg $ miscompile_arg
      $ fault_seed_arg $ format_arg $ threads_arg $ block_arg $ fold_arg
      $ wavefront_arg $ nt_arg $ stagger_arg $ inputs_arg)

(* ------------------------------------------------------------------ *)
(* Stencil programs: multi-stage DAG pipelines                         *)

let program_pos_arg =
  let doc =
    "Program to operate on: a suite program name (see $(b,hdiff)) or a \
     path to a textual .prog file."
  in
  Arg.(value & pos 0 string "hdiff" & info [] ~docv:"PROGRAM" ~doc)

let prog_dims_arg =
  let doc =
    "Grid dimensions for the program's fields, e.g. 256x256 (slowest \
     dimension first; the rank must match the program's)."
  in
  Arg.(value & opt string "256x256" & info [ "d"; "dims" ] ~docv:"DIMS" ~doc)

let load_program input =
  if Sys.file_exists input then
    let src = In_channel.with_open_text input In_channel.input_all in
    match Stencil.Program.parse src with
    | Ok p -> Ok (p, Some src)
    | Error (line, msg) ->
        Error (`Msg (Printf.sprintf "%s: line %d: %s" input line msg))
  else
    match Stencil.Suite.find_program input with
    | p -> Ok (p, None)
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown program %S (a .prog file, or one of: %s)"
               input
               (String.concat ", "
                  (List.map
                     (fun (p : Stencil.Program.t) -> p.Stencil.Program.name)
                     Stencil.Suite.programs))))

(* Deterministic input grids for a program: per-field PRNG streams seeded
   by the field name, halos zeroed — identical values regardless of the
   fusion partition being run, so output checksums are comparable. *)
let program_inputs (p : Stencil.Program.t) ~dims ~config =
  let hp = Stencil.Program.halo_plan p in
  let layout =
    match config.Config.fold with
    | None -> Grid.Linear
    | Some f -> Grid.Folded (Array.copy f)
  in
  let space = Grid.fresh_space () in
  ( space,
    List.map
      (fun (name, halo) ->
        let rng = Yasksite_util.Prng.create ~seed:(7 + Hashtbl.hash name) in
        let g = Grid.create ~space ~halo ~layout ~dims () in
        Grid.fill g ~f:(fun _ ->
            Yasksite_util.Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
        Grid.halo_dirichlet g 0.0;
        (name, g))
      hp.Stencil.Program.input_halo )

let grid_checksum g =
  let dims = Grid.dims g in
  let rank = Array.length dims in
  let idx = Array.make rank 0 in
  let rec go d acc =
    if d = rank then acc +. Grid.get g idx
    else begin
      let acc = ref acc in
      for i = 0 to dims.(d) - 1 do
        idx.(d) <- i;
        acc := go (d + 1) !acc
      done;
      !acc
    end
  in
  go 0 0.0

let program_lint_cmd =
  let inputs_arg =
    let doc = "Programs to lint: .prog files or suite program names." in
    Arg.(value & pos_all string [] & info [] ~docv:"PROGRAM" ~doc)
  in
  let quiet_arg =
    let doc = "Only set the exit status; print nothing." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,text) (compiler-style, default) or $(b,json) \
       (one stable machine-readable report for the whole run)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run quiet format inputs =
    protect @@ fun () ->
    if inputs = [] then
      or_die
        (Error (`Msg "nothing to lint (pass .prog files or program names)"));
    let worst = ref 0 in
    let collected = ref [] in
    let report ?src ~origin diagnostics =
      worst := max !worst (Lint.exit_code diagnostics);
      match format with
      | `Json ->
          List.iter
            (fun d -> collected := (origin, src, d) :: !collected)
            diagnostics
      | `Text ->
          if not quiet then
            if diagnostics = [] then Printf.printf "%s: clean\n" origin
            else begin
              print_string
                (Lint.Diagnostic.render_list ?src ~origin diagnostics);
              Printf.printf "%s: %s\n" origin
                (Lint.Diagnostic.summary diagnostics)
            end
    in
    List.iter
      (fun input ->
        if Sys.file_exists input then
          let src = In_channel.with_open_text input In_channel.input_all in
          report ~src ~origin:input (Lint.Program.source src)
        else
          match Stencil.Suite.find_program input with
          | p -> report ~origin:input (Lint.Program.program p)
          | exception Not_found ->
              report ~origin:input
                [ Lint.Diagnostic.errorf ~code:"YS700"
                    "no such file or suite program: %s" input ])
      inputs;
    (match format with
    | `Json when not quiet ->
        print_endline (Lint.Diagnostic.report_to_json (List.rev !collected))
    | _ -> ());
    exit !worst
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Check program DAGs statically: the YS7xx rules (undefined \
             fields, cycles, dead stages...) plus the per-stage kernel \
             rules (exit 1 on errors)")
    Term.(const run $ quiet_arg $ format_arg $ inputs_arg)

let program_rank_cmd =
  let top =
    let doc = "How many top-ranked partitions to list." in
    Arg.(value & opt int 8 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run machine scale input dims threads block fold wavefront nt top
      stats_json =
    protect @@ fun () ->
    let m = or_die (machine_of_string ~scale machine) in
    let p, _ = or_die (load_program input) in
    let dims = or_die (dims_of_string dims) in
    let config =
      or_die
        (build_config ~block ~fold ~wavefront ~threads ~streaming_stores:nt ())
    in
    Lint.gate ~context:"program rank" (Lint.Program.program p);
    let cache = Model_cache.shared in
    let store = attach_default_store cache in
    let ranked = Advisor.rank_partitions ~cache m p ~dims ~config in
    let unfused =
      List.find
        (fun (pt : Advisor.partition) -> pt.Advisor.inline = [])
        ranked
    in
    let tbl =
      Yasksite_util.Table.create
        ~title:
          (Printf.sprintf
             "Fusion partitions of %s on %s (%d ranked, ECM-predicted)"
             p.Stencil.Program.name m.Machine.name (List.length ranked))
        ~columns:
          [ ("#", Yasksite_util.Table.Right);
            ("stages", Yasksite_util.Table.Right);
            ("pred ms", Yasksite_util.Table.Right);
            ("vs unfused", Yasksite_util.Table.Right);
            ("inlined", Yasksite_util.Table.Left) ]
        ()
    in
    List.iteri
      (fun i (pt : Advisor.partition) ->
        if i < top then
          Yasksite_util.Table.add_row tbl
            [ string_of_int (i + 1);
              string_of_int pt.Advisor.stages;
              Yasksite_util.Table.cell_f (1e3 *. pt.Advisor.time);
              Printf.sprintf "%.2fx" (unfused.Advisor.time /. pt.Advisor.time);
              (match pt.Advisor.inline with
              | [] -> "(none: fully materialized)"
              | l -> String.concat " " l) ])
      ranked;
    Yasksite_util.Table.print tbl;
    Printf.printf
      "unfused baseline: %d stages, %.3f ms predicted; best partition \
       %.2fx faster\n"
      unfused.Advisor.stages
      (1e3 *. unfused.Advisor.time)
      (match ranked with
      | best :: _ -> unfused.Advisor.time /. best.Advisor.time
      | [] -> 1.0);
    if stats_json then print_endline (stats_json_line ~cache ~store)
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Rank a program's fuse/materialize partitions with the ECM \
             model (no execution)")
    Term.(
      const run $ machine_arg $ scale_arg $ program_pos_arg $ prog_dims_arg
      $ threads_arg $ block_arg $ fold_arg $ wavefront_arg $ nt_arg $ top
      $ stats_json_arg)

let program_run_cmd =
  let fuse_arg =
    let doc =
      "Fusion partition to execute: $(b,none) (fully materialized, the \
       default), $(b,all) (every inlinable stage fused), $(b,auto) (the \
       ECM-ranked best partition for this machine and dims), or a \
       comma-separated list of stage names to inline."
    in
    Arg.(value & opt string "none" & info [ "fuse" ] ~docv:"PART" ~doc)
  in
  let run machine scale input dims threads block fold nt fuse domains backend
      stats_json =
    protect @@ fun () ->
    Option.iter Engine.Sweep.set_default_backend backend;
    ignore (Engine.Sweep.default_backend () : Engine.Sweep.backend);
    let p, _ = or_die (load_program input) in
    let dims = or_die (dims_of_string dims) in
    let config =
      or_die
        (build_config ~block ~fold ~wavefront:1 ~threads ~streaming_stores:nt
           ())
    in
    let cache = Model_cache.shared in
    let store = attach_default_store cache in
    Lint.gate ~context:"program run" (Lint.Program.program p);
    let inline =
      match fuse with
      | "none" -> []
      | "all" -> Stencil.Program.inlinable p
      | "auto" ->
          let m = or_die (machine_of_string ~scale machine) in
          (Advisor.best_partition ~cache m p ~dims ~config).Advisor.inline
      | names ->
          String.split_on_char ',' names
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
    in
    let fused = Stencil.Program.fuse p ~inline in
    Printf.printf "%s: %d stages (%s)\n" p.Stencil.Program.name
      (Array.length fused.Stencil.Program.stages)
      (match inline with
      | [] -> "fully materialized"
      | l -> "fused: " ^ String.concat " " l);
    let space, inputs = program_inputs fused ~dims ~config in
    let exec pool =
      timed (fun () ->
          Engine.Prog.run ?pool ?backend ~config ~space fused ~inputs)
    in
    let result, wall =
      match domains with
      | None -> exec None
      | Some _ -> with_domains domains (fun pool -> exec (Some pool))
    in
    let tbl =
      Yasksite_util.Table.create ~title:"Stage sweeps (execution order)"
        ~columns:
          [ ("stage", Yasksite_util.Table.Left);
            ("points", Yasksite_util.Table.Right);
            ("vec units", Yasksite_util.Table.Right);
            ("rows", Yasksite_util.Table.Right);
            ("blocks", Yasksite_util.Table.Right) ]
        ()
    in
    let total = ref Engine.Sweep.zero_stats in
    List.iter
      (fun (sr : Engine.Prog.stage_run) ->
        total := Engine.Sweep.add_stats !total sr.Engine.Prog.stats;
        let s = sr.Engine.Prog.stats in
        Yasksite_util.Table.add_row tbl
          [ sr.Engine.Prog.stage;
            string_of_int s.Engine.Sweep.points;
            string_of_int s.Engine.Sweep.vec_units;
            string_of_int s.Engine.Sweep.rows;
            string_of_int s.Engine.Sweep.blocks ])
      result.Engine.Prog.stages;
    Yasksite_util.Table.print tbl;
    Printf.printf "total: %d lattice updates in %.4f s (%.2f MLUP/s)\n"
      !total.Engine.Sweep.points wall
      (float_of_int !total.Engine.Sweep.points /. wall /. 1e6);
    List.iter
      (fun (name, g) ->
        Printf.printf "output %-8s checksum % .12e\n" name (grid_checksum g))
      result.Engine.Prog.outputs;
    if stats_json then print_endline (stats_json_line ~cache ~store)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a program on the simulated machine: one extended \
             sweep per stage in dependency order, under any fusion \
             partition (outputs are bit-identical across partitions and \
             backends)")
    Term.(
      const run $ machine_arg $ scale_arg $ program_pos_arg $ prog_dims_arg
      $ threads_arg $ block_arg $ fold_arg $ nt_arg $ fuse_arg $ domains_arg
      $ backend_arg $ stats_json_arg)

let program_cmd =
  Cmd.group
    (Cmd.info "program"
       ~doc:"Multi-stage stencil programs: lint the DAG, rank fusion \
             partitions with the ECM model, and execute")
    [ program_lint_cmd; program_rank_cmd; program_run_cmd ]

let methods_cmd =
  let pde_arg =
    let doc = "PDE problem: heat1d, heat2d or heat3d." in
    Arg.(value & opt string "heat2d" & info [ "pde" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc = "Interior grid points per dimension." in
    Arg.(value & opt int 128 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run machine scale pname n threads =
    protect @@ fun () ->
    let m = or_die (machine_of_string ~scale machine) in
    let pde =
      match pname with
      | "heat1d" -> Ode.Pde.heat ~rank:1 ~n ~alpha:1.0
      | "heat2d" -> Ode.Pde.heat ~rank:2 ~n ~alpha:1.0
      | "heat3d" -> Ode.Pde.heat ~rank:3 ~n ~alpha:1.0
      | _ -> or_die (Error (`Msg ("unknown pde " ^ pname)))
    in
    let methods =
      [ Ode.Tableau.euler; Ode.Tableau.heun2; Ode.Tableau.kutta3;
        Ode.Tableau.rk4; Ode.Tableau.dopri5 ]
    in
    let choices = Offsite.rank_methods m pde methods ~threads in
    let tbl =
      Yasksite_util.Table.create
        ~title:
          (Printf.sprintf
             "Method ranking (stability-limited) on %s, %d threads"
             m.Machine.name threads)
        ~columns:
          [ ("method", Yasksite_util.Table.Left);
            ("order", Yasksite_util.Table.Right);
            ("h_stable", Yasksite_util.Table.Right);
            ("variant", Yasksite_util.Table.Left);
            ("pred s/unit", Yasksite_util.Table.Right);
            ("meas s/unit", Yasksite_util.Table.Right) ]
        ()
    in
    List.iter
      (fun (c : Offsite.method_choice) ->
        Yasksite_util.Table.add_row tbl
          [ c.Offsite.tableau.Ode.Tableau.name;
            string_of_int c.Offsite.tableau.Ode.Tableau.order;
            Printf.sprintf "%.2e" c.Offsite.h_stable;
            scheme_name
              c.Offsite.candidate.Offsite.variant.Offsite.Variant.scheme;
            Yasksite_util.Table.cell_f c.Offsite.predicted_time_per_unit;
            Yasksite_util.Table.cell_f c.Offsite.measured_time_per_unit ])
      choices;
    Yasksite_util.Table.print tbl
  in
  Cmd.v
    (Cmd.info "methods"
       ~doc:"Rank explicit methods by stability-limited cost per simulated \
             second (Offsite's cross-method selection)")
    Term.(const run $ machine_arg $ scale_arg $ pde_arg $ n_arg $ threads_arg)

let store_cmd =
  let root_arg =
    let doc =
      "Store root to operate on (default: $(b,YASKSITE_STORE), else \
       ~/.cache/yasksite)."
    in
    Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Emit one machine-readable JSON line instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  (* Subcommands open the root explicitly: the YASKSITE_NO_STORE kill
     switch silences implicit persistence in tuning commands, not an
     operator asking about the store by name. *)
  let open_store root =
    Store.open_root
      (match root with Some r -> r | None -> Store.default_root ())
  in
  let stats_cmd =
    let run root json =
      protect @@ fun () ->
      let s = open_store root in
      let u = Store.usage s in
      let by_ns = Store.usage_by_ns s in
      if json then
        print_endline
          (Json.to_string
             (Obj
                [ ("root", String (Store.root s));
                  ("active", Bool (Store.active s));
                  ("writable", Bool (Store.writable s));
                  ("entries", Int u.Store.entries);
                  ("bytes", Int u.Store.bytes);
                  ("corrupt", Int u.Store.corrupt);
                  ( "schemas",
                    List
                      (List.map
                         (fun (n : Store.ns_usage) ->
                           Json.Obj
                             [ ("ns", String n.Store.ns);
                               ("entries", Int n.Store.ns_entries);
                               ("bytes", Int n.Store.ns_bytes) ])
                         by_ns) ) ]))
      else begin
        Printf.printf "root      %s\n" (Store.root s);
        Printf.printf "active    %b\n" (Store.active s);
        Printf.printf "writable  %b\n" (Store.writable s);
        Printf.printf "entries   %d (%d bytes)\n" u.Store.entries
          u.Store.bytes;
        List.iter
          (fun (n : Store.ns_usage) ->
            Printf.printf "  %-12s %d entries (%d bytes)\n" n.Store.ns
              n.Store.ns_entries n.Store.ns_bytes)
          by_ns;
        Printf.printf "corrupt   %d quarantined file(s)\n" u.Store.corrupt;
        List.iter
          (fun d -> Printf.printf "note      %s\n" d)
          (Store.diagnostics s)
      end
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Show the store's location, state and contents")
      Term.(const run $ root_arg $ json_arg)
  in
  let verify_cmd =
    let run root json =
      protect @@ fun () ->
      let s = open_store root in
      let r = Store.verify s in
      (* Healthy-but-stale kern-v1 payloads (legacy headerless, old
         codegen ABI, or a toolchain this machine no longer has) are
         reported, not quarantined: they are valid entries nothing
         will ever read again. [store gc --stale] drops them. The
         exit code stays corruption-only. *)
      let stale = List.length (Engine.Native.stale_kernels s) in
      if json then
        print_endline
          (Json.to_string
             (Obj
                [ ("root", String (Store.root s));
                  ("scanned", Int r.Store.scanned);
                  ("ok", Int r.Store.ok);
                  ("bad", Int r.Store.bad);
                  ("stale", Int stale) ]))
      else begin
        Printf.printf
          "verified %s: %d scanned, %d ok, %d bad (quarantined)\n"
          (Store.root s) r.Store.scanned r.Store.ok r.Store.bad;
        if stale > 0 then
          Printf.printf
            "%d stale kern-v1 payload(s) (old ABI or toolchain; run \
             `store gc --stale` to drop)\n"
            stale
      end;
      exit (if r.Store.bad > 0 then 1 else 0)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Check every entry's header, checksum and content address, \
               quarantining invalid ones (exit 1 if any were found); also \
               reports stale compiled-kernel payloads")
      Term.(const run $ root_arg $ json_arg)
  in
  let gc_cmd =
    let max_age_arg =
      let doc = "Expire entries older than this many seconds." in
      Arg.(
        value & opt (some float) None & info [ "max-age" ] ~docv:"S" ~doc)
    in
    let max_size_arg =
      let doc =
        "Evict oldest entries until at most this many bytes remain."
      in
      Arg.(
        value & opt (some int) None & info [ "max-size" ] ~docv:"BYTES" ~doc)
    in
    let ns_arg =
      let doc =
        "Restrict collection to one schema namespace (e.g. $(b,kern-v1) \
         to drop compiled kernels without touching tuning results)."
      in
      Arg.(value & opt (some string) None & info [ "ns" ] ~docv:"NS" ~doc)
    in
    let stale_arg =
      let doc =
        "Also drop stale $(b,kern-v1) payloads: compiled kernels whose \
         metadata header names an old codegen ABI or a toolchain other \
         than this machine's (plus legacy headerless entries). They are \
         unreachable — the store key binds the toolchain — so this only \
         reclaims bytes."
      in
      Arg.(value & flag & info [ "stale" ] ~doc)
    in
    let run root json max_age max_size ns stale =
      protect @@ fun () ->
      let s = open_store root in
      let stale_removed = if stale then Engine.Native.gc_stale s else 0 in
      let r = Store.gc ?ns ?max_age_s:max_age ?max_size_bytes:max_size s in
      if json then
        print_endline
          (Json.to_string
             (Obj
                [ ("root", String (Store.root s));
                  ("scanned", Int r.Store.scanned);
                  ("removed", Int r.Store.removed);
                  ("kept", Int r.Store.kept);
                  ("bytes_removed", Int r.Store.bytes_removed);
                  ("bytes_kept", Int r.Store.bytes_kept);
                  ("stale_removed", Int stale_removed) ]))
      else begin
        Printf.printf
          "gc %s: %d scanned, %d removed (%d bytes), %d kept (%d bytes)\n"
          (Store.root s) r.Store.scanned r.Store.removed r.Store.bytes_removed
          r.Store.kept r.Store.bytes_kept;
        if stale then
          Printf.printf "stale kern-v1 payloads removed: %d\n" stale_removed
      end
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Expire old entries, bound the store's size, and sweep stale \
               temp files")
      Term.(
        const run $ root_arg $ json_arg $ max_age_arg $ max_size_arg $ ns_arg
        $ stale_arg)
  in
  let path_cmd =
    let run root =
      print_endline
        (match root with Some r -> r | None -> Store.default_root ())
    in
    Cmd.v
      (Cmd.info "path" ~doc:"Print the resolved store root and exit")
      Term.(const run $ root_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain the persistent tuning store")
    [ stats_cmd; verify_cmd; gc_cmd; path_cmd ]

let () =
  let info =
    Cmd.info "yasksite" ~version:Yasksite.version
      ~doc:"Stencil optimization with the ECM model (CGO 2021 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ machines_cmd; stencils_cmd; predict_cmd; run_cmd; tune_cmd;
            lint_cmd; program_cmd; ode_cmd; methods_cmd; store_cmd ]))
