module Grid = Yasksite_grid.Grid
module Hierarchy = Yasksite_cachesim.Hierarchy
module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Incore = Yasksite_ecm.Incore
module Prng = Yasksite_util.Prng

type t = {
  config : Config.t;
  cycles_per_cl : float;
  t_incore_ol : float;
  t_incore_nol : float;
  t_data : float array;
  lines_per_cl : float array;
  mem_bytes_per_lup : float;
  lups_core : float;
  lups_chip : float;
  flops_chip : float;
  sim_points : int;
}

(* Loop-management overheads billed per loop structure event. *)
let row_overhead_cycles = 2.0

let block_overhead_cycles = 25.0

(* Representative-core slice of the static partition, plus the load-
   balance factor: with T threads over an extent of n, the slowest core
   owns ceil(n/T) and determines the chip's finishing time. *)
let slice_dims ~dims ~rank ~wavefront ~threads =
  let part_dim = if wavefront > 1 && rank >= 2 then 1 else 0 in
  let n = dims.(part_dim) in
  let sliced = Array.copy dims in
  sliced.(part_dim) <- max 1 (n / threads);
  let ceil_share = (n + threads - 1) / threads in
  let balance =
    float_of_int n /. float_of_int (threads * ceil_share)
  in
  (sliced, min 1.0 balance)

let make_grids spec ~space ~dims ~config ~rng =
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let layout = Grid.layout_of_fold config.Config.fold in
  let fresh () =
    let g = Grid.create ~space ~halo ~layout ~dims () in
    Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
    Grid.halo_dirichlet g 0.0;
    g
  in
  let n = spec.Spec.n_fields in
  let inputs = Array.init n (fun _ -> fresh ()) in
  let output = fresh () in
  (info, inputs, output)

(* Execute warm-up plus a measured pass; return work stats and the number
   of measured lattice updates. The kernel plan is lowered once by the
   caller and reused for every pass. *)
let execute ~plan spec ~inputs ~output ~config ~vec_unit ~trace ~sanitize =
  let wf = config.Config.wavefront in
  if wf > 1 then begin
    let a = inputs.(0) and b = output in
    (* Warm-up pass. *)
    let final, _ =
      Wavefront.steps ~plan ~trace ?sanitize ~config ~vec_unit spec ~a ~b
        ~steps:wf
    in
    Hierarchy.reset_counters trace;
    let a', b' = if final == a then (a, b) else (b, a) in
    let _, stats =
      Wavefront.steps ~plan ~trace ?sanitize ~config ~vec_unit spec ~a:a'
        ~b:b' ~steps:wf
    in
    stats
  end
  else begin
    (* Warm-up sweep, then a measured ping-pong pass (two sweeps). *)
    let swap_input = Array.copy inputs in
    let _ =
      Sweep.run ~plan ~trace ?sanitize ~config ~vec_unit spec ~inputs ~output
    in
    Hierarchy.reset_counters trace;
    swap_input.(0) <- output;
    let s1 =
      Sweep.run ~plan ~trace ?sanitize ~config ~vec_unit spec
        ~inputs:swap_input ~output:inputs.(0)
    in
    let s2 =
      Sweep.run ~plan ~trace ?sanitize ~config ~vec_unit spec ~inputs ~output
    in
    Sweep.add_stats s1 s2
  end

let stencil_sweep ?(sanitize = false) (m : Machine.t) spec ~dims ~config =
  let rank = spec.Spec.rank in
  if Array.length dims <> rank then
    invalid_arg "Measure.stencil_sweep: dims rank mismatch";
  let threads = config.Config.threads in
  let sliced, balance =
    slice_dims ~dims ~rank ~wavefront:config.Config.wavefront ~threads
  in
  (* A private address space per measurement: the same address sequence
     a freshly reset global allocator would produce, without mutating
     shared state — concurrent measurements (a parallel tuning sweep)
     stay bit-identical to sequential ones. *)
  let space = Grid.fresh_space () in
  let rng = Prng.create ~seed:42 in
  let info, inputs, output = make_grids spec ~space ~dims:sliced ~config ~rng in
  let trace = Hierarchy.create ~active_cores:threads m in
  let lanes = m.simd.dp_lanes in
  let vec_unit =
    match config.Config.fold with
    | Some f -> Array.copy f
    | None ->
        let u = Array.make rank 1 in
        u.(rank - 1) <- lanes;
        u
  in
  (* One sanitizer per measurement: each call's private address space
     reuses the same virtual base addresses, so shadow state must not
     outlive the grids it describes. Fail-fast — a trap is a legality
     bug and aborts the measurement loudly. *)
  let sanitizer = if sanitize then Some (Sanitizer.create ()) else None in
  let plan = Lower.lower spec in
  (* Sanitized measurements try to earn a safety certificate up front:
     a hit lets every sweep below run the unchecked fast path, so the
     sanitizer's per-point overhead is paid once (on the tiny proxy
     grids) instead of per measurement. An uncertifiable tuple simply
     keeps the checked path — certification never rejects work here. *)
  if sanitize then
    ignore (Certify.ensure ~machine:m ~plan spec ~inputs ~output ~config);
  let stats =
    execute ~plan spec ~inputs ~output ~config ~vec_unit ~trace
      ~sanitize:sanitizer
  in
  let points = stats.Sweep.points in
  let lups_per_cl = float_of_int (Incore.lups_per_cl m) in
  let cls = float_of_int points /. lups_per_cl in
  (* Observed traffic per cache line of output. *)
  let n_levels = Hierarchy.levels trace in
  let lines_per_cl =
    Array.init n_levels (fun level ->
        float_of_int (Hierarchy.traffic_lines trace ~level) /. cls)
  in
  let line_bytes = float_of_int (Hierarchy.line_bytes trace) in
  (* Billed in-core cycles: the port model applied to the work actually
     executed (including fold padding and remainders), plus loop
     overheads. *)
  let fold = Config.fold_extents config ~rank in
  let model_incore = Incore.analyze m info ~fold in
  let ideal_units = float_of_int points /. float_of_int lanes in
  let work_ratio = float_of_int stats.Sweep.vec_units /. ideal_units in
  let overhead_per_cl =
    ((float_of_int stats.Sweep.rows *. row_overhead_cycles)
    +. (float_of_int stats.Sweep.blocks *. block_overhead_cycles))
    /. cls
  in
  let t_incore_ol = (model_incore.Incore.t_ol *. work_ratio) +. overhead_per_cl in
  let t_incore_nol = model_incore.Incore.t_nol *. work_ratio in
  (* Observed transfer cycles per boundary; the memory boundary includes
     chip-level bandwidth contention among the active cores. *)
  let chip_bpc = Machine.mem_bytes_per_cycle_chip m in
  let t_data =
    Array.init n_levels (fun k ->
        let bytes = lines_per_cl.(k) *. line_bytes in
        let link = bytes /. m.caches.(k).Cache_level.bytes_per_cycle in
        if k = n_levels - 1 then
          max link (float_of_int threads *. bytes /. chip_bpc)
        else link)
  in
  let compose t_mem_override =
    let data = Array.copy t_data in
    data.(n_levels - 1) <- t_mem_override;
    match m.overlap with
    | Machine.Serial ->
        max t_incore_ol (t_incore_nol +. Array.fold_left ( +. ) 0.0 data)
    | Machine.Overlapping ->
        Array.fold_left max (max t_incore_ol t_incore_nol) data
  in
  (* Single-core view: no contention at the memory link. *)
  let mem_bytes_per_cl = lines_per_cl.(n_levels - 1) *. line_bytes in
  let t_mem_single =
    mem_bytes_per_cl /. m.caches.(n_levels - 1).Cache_level.bytes_per_cycle
  in
  let cycles_single = compose t_mem_single in
  let cycles_contended = compose t_data.(n_levels - 1) in
  let hz = Machine.cycles_per_second m in
  let lups_core = hz *. lups_per_cl /. cycles_single in
  let lups_chip =
    float_of_int threads *. hz *. lups_per_cl /. cycles_contended *. balance
  in
  { config;
    cycles_per_cl = cycles_single;
    t_incore_ol;
    t_incore_nol;
    t_data;
    lines_per_cl;
    mem_bytes_per_lup = mem_bytes_per_cl /. lups_per_cl;
    lups_core;
    lups_chip;
    flops_chip = lups_chip *. float_of_int info.Analysis.flops;
    sim_points = points }

let lups_at_threads m spec ~dims ~config ~threads =
  let c = { config with Config.threads } in
  (stencil_sweep m spec ~dims ~config:c).lups_chip
