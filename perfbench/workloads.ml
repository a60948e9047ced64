(* The benchmark's workloads. Each op does identical, self-contained
   work through the library's public API — the calls the CLI makes for
   [tune]'s ranking, for [ode] and for [program run] — on one domain,
   with a fresh model cache, no pool and no store. Outputs are checked
   against the values in [Expected]. *)

open Yasksite

type outcome = {
  check : unit -> (unit, string) result;
      (** compares the op's output with [Expected] and records the op's
          counters; runs outside the timed region *)
  rates : (string * float) list;  (** per-op figures reported as medians *)
}

type instance = {
  op : unit -> outcome;
  replay : unit -> unit;
      (** traced runs only: replays, after the op, the public calls the
          op makes inside a single library call, so their layers get
          spans *)
  working_set : unit -> (string * Json.t) list;
      (** computed after set-up, outside its timing *)
}

type t = { name : string; why : string; setup : unit -> instance }

(* clx/8 and rome/8: the shipped machines with caches shrunk 8x, the
   CLI's default simulation scale. *)
let clx8 () = Machine.scaled ~factor:8 Machine.cascade_lake
let rome8 () = Machine.scaled ~factor:8 Machine.rome
let config = Config.v ~threads:1 ()
let threads = 1
let hex = Printf.sprintf "%h"

let expect what ~expected ~got to_s =
  if expected = got then Ok ()
  else Error (Printf.sprintf "%s: expected %s, got %s" what (to_s expected) (to_s got))

let all_ok results =
  match List.filter_map (function Error e -> Some e | Ok () -> None) results with
  | [] -> Ok ()
  | errors -> Error (String.concat "; " errors)

let record_cache cache =
  let s = Model_cache.stats cache in
  Span.count "ecm.cache_hits" (float_of_int s.Model_cache.hits);
  Span.count "ecm.cache_misses" (float_of_int s.Model_cache.misses)

let cache_bytes (m : Machine.t) level = m.Machine.caches.(level).Cache_level.size_bytes

(* ------------------------------------------------------------------ *)
(* rank: the ECM model does about 95% of the work and no kernel runs —
   the paper's analytic-tuning claim. For clx/8 and then rome/8, rank
   heat-3d-7pt's legal tuning space at 64^3 with 1 thread (550 and 330
   candidates), then all 4096 fusion partitions of hdiff at 256^2. The
   machines disagree about hdiff (12 vs 8 stages inlined), so both
   decision paths run. Working set: model only, no grid is allocated. *)

let rank_dims = [| 64; 64; 64 |]
let hdiff_dims = [| 256; 256 |]

let parse_hdiff () =
  Span.with_ "stencil.parse" (fun () ->
      match Stencil.Program.parse Stencil.Suite.hdiff_text with
      | Ok p -> p
      | Error (line, msg) -> failwith (Printf.sprintf "hdiff: line %d: %s" line msg))

let rank_setup () =
  let machines = [ clx8 (); rome8 () ] in
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let info = Stencil.Analysis.of_spec spec in
  let hdiff = parse_hdiff () in
  let legal = Lint.Schedule.legal info ~dims:rank_dims in
  let op () =
    let cache = Model_cache.create () in
    let results =
      List.map
        (fun m ->
          let ranked =
            Span.with_ "ecm.rank_all" (fun () ->
                Advisor.rank_all ~cache ~filter:legal m info ~dims:rank_dims
                  ~threads)
          in
          let parts =
            Span.with_ "ecm.rank_partitions" (fun () ->
                Advisor.rank_partitions ~cache m hdiff ~dims:hdiff_dims ~config)
          in
          (m, ranked, parts))
        machines
    in
    let check () =
      record_cache cache;
      all_ok
        (List.map2
           (fun (m, ranked, parts) (e : Expected.rank) ->
             let name = m.Machine.name in
             match (ranked, parts) with
             | (best, pred) :: _, part :: _ ->
                 all_ok
                   [ expect (name ^ " candidates") ~expected:e.candidates
                       ~got:(List.length ranked) string_of_int;
                     expect (name ^ " best config") ~expected:e.best_config
                       ~got:(Config.to_string best) Fun.id;
                     expect (name ^ " best LUP/s") ~expected:e.best_lups
                       ~got:pred.Model.lups_chip hex;
                     expect (name ^ " partitions") ~expected:e.partitions
                       ~got:(List.length parts) string_of_int;
                     expect (name ^ " hdiff inline") ~expected:e.inline
                       ~got:part.Advisor.inline (String.concat ",") ]
             | _ -> Error (name ^ ": empty ranking"))
           results Expected.rank)
    in
    { check; rates = [] }
  in
  let replay () =
    Span.with_ "lint.schedule" (fun () ->
        List.iter
          (fun m ->
            ignore
              (List.filter legal
                 (Advisor.space m ~dims:rank_dims ~threads ~rank:3)))
          machines)
  in
  { op; replay; working_set = (fun () -> [ ("grids", Json.Str "none: model only") ]) }

(* ------------------------------------------------------------------ *)
(* ode: Offsite RK4 on heat3d with n=16 (= yasksite ode --pde heat3d -n
   16) on clx/8. Engine.Measure does about 80% of the work (Sweep driven
   traced through Cachesim), the model about 20%, and most model lookups
   are memo hits. At this size Offsite ranks right (Kendall 1.0, top-1
   correct); the CLI default heat2d n=64 does not. Working set: the
   simulated grids, 18^3 doubles (45.6 KiB) each and up to 7 per variant
   (319 KiB), against clx/8's 128 KiB L2 and 3.4 MiB L3. *)

let ode_h = 1e-5

let ode_setup () =
  let m = clx8 () in
  let tab = Ode.Tableau.find "rk4" in
  let pde = Ode.Pde.heat ~rank:3 ~n:16 ~alpha:1.0 in
  let dims = pde.Ode.Pde.dims in
  let op () =
    let cache = Model_cache.create () in
    let candidates =
      Span.with_ "offsite.evaluate" (fun () ->
          Offsite.evaluate ~cache m pde tab ~h:ode_h ~threads)
    in
    let check () =
      record_cache cache;
      let q = Offsite.quality candidates in
      let got =
        List.map
          (fun (c : Offsite.candidate) ->
            ( c.variant.Offsite.Variant.name,
              c.tuned,
              c.predicted_step_seconds,
              c.measured_step_seconds ))
          candidates
      in
      all_ok
        [ expect "candidates" ~expected:Expected.ode ~got (fun l ->
              String.concat "; "
                (List.map
                   (fun (n, t, p, s) -> Printf.sprintf "%s/%b/%h/%h" n t p s)
                   l));
          expect "kendall" ~expected:1.0 ~got:q.Offsite.kendall hex;
          expect "top-1" ~expected:true ~got:q.Offsite.top1 string_of_bool ]
    in
    { check; rates = [] }
  in
  (* Offsite.score's calls, per candidate kernel, in evaluate's order. *)
  let replay () =
    let cache = Model_cache.create () in
    List.iter
      (fun (v : Offsite.Variant.t) ->
        List.iter
          (fun tuned ->
            List.iter
              (fun (k : Offsite.Variant.kernel) ->
                let info = Stencil.Analysis.of_spec k.Offsite.Variant.spec in
                let config =
                  if tuned then
                    Span.with_ "offsite.best_static_config" (fun () ->
                        Offsite.best_static_config ~cache m info ~dims ~threads)
                  else config
                in
                ignore
                  (Span.with_ "ecm.predict" (fun () ->
                       Model_cache.predict cache m info ~dims ~config));
                let r =
                  Span.with_ "measure.stencil_sweep" (fun () ->
                      Engine.Measure.stencil_sweep m k.Offsite.Variant.spec
                        ~dims ~config)
                in
                let pts = float_of_int r.Engine.Measure.sim_points in
                Span.count "measure.calls" 1.0;
                Span.count "measure.sim_points" pts;
                List.iteri
                  (fun i name ->
                    Span.count name (pts *. r.Engine.Measure.lines_per_cl.(i)))
                  [ "cachesim.l1l2_lines";
                    "cachesim.l2l3_lines";
                    "cachesim.l3mem_lines" ])
              v.Offsite.Variant.kernels)
          [ false; true ])
      (Offsite.Variant.all tab pde ~h:ode_h)
  in
  let working_set () =
    let halo = Stencil.Analysis.halo (Stencil.Analysis.of_spec pde.Ode.Pde.spec) in
    let grid_bytes =
      8 * Array.fold_left ( * ) 1 (Array.mapi (fun i d -> d + (2 * halo.(i))) dims)
    in
    let buffers =
      List.fold_left
        (fun n v -> max n (List.length (Offsite.Variant.buffers v)))
        0
        (Offsite.Variant.all tab pde ~h:ode_h)
    in
    [ ("grid_bytes", Json.Int grid_bytes);
      ("max_buffers_per_variant", Json.Int buffers);
      ("variant_bytes", Json.Int (buffers * grid_bytes));
      ("clx8_l2_bytes", Json.Int (cache_bytes m 1));
      ("clx8_l3_bytes", Json.Int (cache_bytes m 2)) ]
  in
  { op; replay; working_set }

(* ------------------------------------------------------------------ *)
(* program: hdiff at 256^2 run unfused (16 stages) and as clx/8's
   ECM-best partition (12 stages inlined, 4 left), each on the plan and
   codegen backends. The same Sweep that [ode] drives traced runs here
   untraced on the host; neither the simulator nor the model runs in the
   op. The unfused partition is allocation-heavy, the fused one
   recompute-heavy. Working set: 536 KiB per 256^2 input grid with its
   halo and 10.7 MiB live in the unfused run, against the host's L2 and
   L3 (both recorded with every run). *)

let points_per_run = 4 * 256 * 256

(* The interior values' IEEE bits, row-major (outputs are rank-2 and
   linear, so each row is contiguous). *)
let output_bits g =
  let dims = Grid.dims g in
  let b = Bytes.create (8 * dims.(0) * dims.(1)) in
  for y = 0 to dims.(0) - 1 do
    let base = Grid.offset_of g [| y; 0 |] in
    for x = 0 to dims.(1) - 1 do
      Bytes.set_int64_le b (8 * ((y * dims.(1)) + x))
        (Int64.bits_of_float (Grid.unsafe_get_flat g (base + x)))
    done
  done;
  b

let allocated_bytes dims ext =
  8 * Array.fold_left ( * ) 1 (Array.mapi (fun i d -> d + (2 * ext.(i))) dims)

(* Bytes of the intermediates [Engine.Prog.run] allocates on every run,
   from the halo plan. *)
let intermediate_bytes (p : Stencil.Program.t) =
  let hp = Stencil.Program.halo_plan p in
  List.fold_left
    (fun acc (s, ext) ->
      if Array.mem s p.Stencil.Program.outputs then acc
      else acc + allocated_bytes hdiff_dims ext)
    0 hp.Stencil.Program.stage_ext

let mib b = float_of_int b /. 1048576.0

let program_setup () =
  (* Every set-up round resolves its kernels cold — compile, YS6xx
     validation and load — as a process without a kernel store does. *)
  Engine.Native.reset_for_tests ();
  Engine.Cert.clear ();
  let p = parse_hdiff () in
  Span.with_ "lint.program" (fun () ->
      Lint.gate ~context:"program run" (Lint.Program.program p));
  let best =
    Span.with_ "ecm.best_partition" (fun () ->
        Advisor.best_partition ~cache:(Model_cache.create ()) (clx8 ()) p
          ~dims:hdiff_dims ~config)
  in
  let unfused, fused =
    Span.with_ "stencil.fuse" (fun () ->
        ( Stencil.Program.fuse p ~inline:[],
          Stencil.Program.fuse p ~inline:best.Advisor.inline ))
  in
  (* Inputs sized by the unfused halo plan, which fits every partition;
     per-field seeds as in the CLI's program run. *)
  let space = Grid.fresh_space () in
  let inputs =
    Span.with_ "grid.inputs" (fun () ->
        List.map
          (fun (name, halo) ->
            let rng = Yasksite_util.Prng.create ~seed:(7 + Hashtbl.hash name) in
            let g = Grid.create ~space ~halo ~dims:hdiff_dims () in
            Grid.fill g ~f:(fun _ ->
                Yasksite_util.Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
            Grid.halo_dirichlet g 0.0;
            (name, g))
          (Stencil.Program.halo_plan p).Stencil.Program.input_halo)
  in
  let run backend prog =
    Engine.Prog.run ~backend ~config ~space prog ~inputs
  in
  let native0 = Engine.Native.stats () in
  Span.with_ "native.resolve" (fun () ->
      List.iter
        (fun prog -> ignore (run Engine.Sweep.Codegen_backend prog))
        [ unfused; fused ]);
  let native1 = Engine.Native.stats () in
  let delta f = float_of_int (f native1 - f native0) in
  Span.count "native.compiles" (delta (fun s -> s.Engine.Native.compiles));
  Span.count "native.validations" (delta (fun s -> s.Engine.Native.validations));
  Span.count "native.fallbacks" (delta (fun s -> s.Engine.Native.fallbacks));
  Span.count "prog.unfused.intermediate_mb" (mib (intermediate_bytes unfused));
  Span.count "prog.best.intermediate_mb" (mib (intermediate_bytes fused));
  let runs =
    [ ("prog.plan.unfused", Engine.Sweep.Plan_backend, unfused);
      ("prog.plan.best", Engine.Sweep.Plan_backend, fused);
      ("prog.codegen.unfused", Engine.Sweep.Codegen_backend, unfused);
      ("prog.codegen.best", Engine.Sweep.Codegen_backend, fused) ]
  in
  let op () =
    let results =
      List.map
        (fun (label, backend, prog) ->
          let t0 = Span.now_ns () in
          let r = Span.with_ label (fun () -> run backend prog) in
          (label, r, Span.seconds t0 (Span.now_ns ())))
        runs
    in
    let seconds prefix =
      List.fold_left
        (fun acc (label, _, s) ->
          if String.starts_with ~prefix label then acc +. s else acc)
        0.0 results
    in
    let mlups prefix = float_of_int (2 * points_per_run) /. seconds prefix /. 1e6 in
    let check () =
      List.iter
        (fun (label, (r : Engine.Prog.result), _) ->
          if String.starts_with ~prefix:"prog.plan." label then begin
            let part = String.sub label 10 (String.length label - 10) in
            Span.count
              (Printf.sprintf "prog.%s.points" part)
              (float_of_int
                 (List.fold_left
                    (fun n (s : Engine.Prog.stage_run) ->
                      n + s.Engine.Prog.stats.Engine.Sweep.points)
                    0 r.Engine.Prog.stages));
            Span.count
              (Printf.sprintf "prog.%s.stages" part)
              (float_of_int (List.length r.Engine.Prog.stages))
          end)
        results;
      let native = Engine.Native.stats () in
      let outputs (_, (r : Engine.Prog.result), _) = r.Engine.Prog.outputs in
      let first = List.map (fun (n, g) -> (n, output_bits g)) (outputs (List.hd results)) in
      all_ok
        (expect "native toolchain" ~expected:true
           ~got:(Engine.Native.toolchain_id () <> None) string_of_bool
        :: expect "native fallbacks" ~expected:0 ~got:native.Engine.Native.fallbacks
             string_of_int
        :: expect "output digests" ~expected:Expected.program_digests
             ~got:(List.map (fun (n, b) -> (n, Digest.to_hex (Digest.bytes b))) first)
             (fun l -> String.concat "," (List.map (fun (n, d) -> n ^ "=" ^ d) l))
        :: List.map
             (fun ((label, _, _) as run) ->
               if List.for_all2 (fun (_, b) (_, g) -> Bytes.equal b (output_bits g)) first (outputs run)
               then Ok ()
               else Error (label ^ ": outputs differ from prog.plan.unfused"))
             (List.tl results))
    in
    { check; rates = [ ("mlups_plan", mlups "prog.plan."); ("mlups_codegen", mlups "prog.codegen.") ] }
  in
  let working_set () =
    let halo = snd (List.hd (Stencil.Program.halo_plan p).Stencil.Program.input_halo) in
    let outputs = Array.length p.Stencil.Program.outputs * allocated_bytes hdiff_dims [| 0; 0 |] in
    [ ("grid_bytes", Json.Int (allocated_bytes hdiff_dims halo));
      ( "unfused_live_bytes",
        Json.Int
          (List.fold_left (fun a (_, g) -> a + Grid.footprint_bytes g) 0 inputs
          + intermediate_bytes unfused + outputs) ) ]
  in
  { op; replay = ignore; working_set }

let all =
  [ { name = "rank";
      why =
        "ECM ranking of heat-3d-7pt tuning spaces and hdiff fusion partitions \
         on clx/8 and rome/8: the model does ~95% of the work, no kernel runs";
      setup = rank_setup };
    { name = "ode";
      why =
        "Offsite RK4 variant ranking on heat3d n=16, clx/8: simulated \
         measurement (Sweep traced through Cachesim) ~80%, model ~20%, most \
         lookups memo hits";
      setup = ode_setup };
    { name = "program";
      why =
        "hdiff 256^2 run unfused and ECM-best on the plan and codegen \
         backends: host sweeps only, no model or simulator inside the op";
      setup = program_setup } ]
