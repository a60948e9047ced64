module Machine = Yasksite_arch.Machine
module Analysis = Yasksite_stencil.Analysis

type prediction = {
  config : Config.t;
  incore : Incore.t;
  boundaries : Lc.boundary array;
  t_data : float array;
  t_ecm : float;
  cy_per_lup : float;
  lups_single : float;
  mem_bytes_per_lup : float;
  lups_saturated : float;
  saturation_cores : int;
  lups_chip : float;
  flops_chip : float;
}

(* Everything in the model that does not read the thread count: the
   in-core terms and the layer-condition stage. *)
let stage (m : Machine.t) (a : Analysis.t) ~dims ~config =
  let fold = Config.fold_extents config ~rank:a.spec.rank in
  let incore = Incore.analyze m a ~fold in
  (* A wavefront schedule processes single planes of the streamed
     dimension, so a fold extent along it leaves lanes idle. *)
  let lane_waste =
    if config.Config.wavefront > 1 then float_of_int fold.(0) else 1.0
  in
  let incore =
    { incore with
      Incore.t_ol = incore.Incore.t_ol *. lane_waste;
      t_nol = incore.Incore.t_nol *. lane_waste }
  in
  (incore, Lc.stage m a ~dims ~config)

(* The single-core model at [n] threads: the boundaries, the memory
   traffic per update, the per-boundary transfer times and T_ECM. *)
let single_at (m : Machine.t) (incore : Incore.t) lc n =
  let boundaries, mem_bytes = Lc.at lc ~threads:n in
  let lups = Incore.lups_per_cl m in
  let last = Array.length boundaries - 1 in
  (* The memory boundary carries the temporal-blocking and streaming-
     store adjustments of [Lc.at]. *)
  let t_data =
    Array.mapi
      (fun k (b : Lc.boundary) ->
        let bytes_per_lup = if k = last then mem_bytes else b.bytes_per_lup in
        bytes_per_lup *. float_of_int lups
        /. m.caches.(k).Yasksite_arch.Cache_level.bytes_per_cycle)
      boundaries
  in
  let t_ecm =
    match m.overlap with
    | Machine.Serial ->
        max incore.t_ol
          (incore.t_nol +. Array.fold_left ( +. ) 0.0 t_data)
    | Machine.Overlapping ->
        Array.fold_left max (max incore.t_ol incore.t_nol) t_data
  in
  (boundaries, mem_bytes, t_data, t_ecm)

let ceiling (m : Machine.t) mem_bytes_per_lup =
  if mem_bytes_per_lup <= 0.0 then infinity
  else m.mem_bw_chip_gbs *. 1e9 /. mem_bytes_per_lup

let predict (m : Machine.t) (a : Analysis.t) ~dims ~config =
  let incore, lc = stage m a ~dims ~config in
  let threads = config.Config.threads in
  let boundaries, mem_bytes_per_lup, t_data, t_ecm =
    single_at m incore lc threads
  in
  let lups = float_of_int (Incore.lups_per_cl m) in
  let hz = Machine.cycles_per_second m in
  let lups_single = hz *. lups /. t_ecm in
  let lups_saturated = ceiling m mem_bytes_per_lup in
  (* Per-core performance at n threads (shared caches divide up). *)
  let lups_single_at n =
    if n = threads then lups_single
    else
      let _, _, _, t = single_at m incore lc n in
      hz *. lups /. t
  in
  (* The first core count whose chip performance reaches the ceiling.
     [n * lups_single_at n] is not monotone in n: a shrinking L3 share
     can break a layer condition, so the search is linear. It starts at
     the in-core bound: under either overlap rule T_ECM(n) is at least
     max(T_OL, T_nOL), as every data term is at least 0, and IEEE
     division and multiplication are monotone, so a count whose
     [n * bound] falls short of the ceiling cannot be the crossing. *)
  let saturation_cores =
    let bound = hz *. lups /. max incore.t_ol incore.t_nol in
    let rec start n =
      if n < m.cores && float_of_int n *. bound < lups_saturated then
        start (n + 1)
      else n
    in
    let rec find n =
      if n >= m.cores then m.cores
      else if float_of_int n *. lups_single_at n >= lups_saturated then n
      else find (n + 1)
    in
    if lups_saturated = infinity then m.cores else find (start 1)
  in
  let lups_chip = min (float_of_int threads *. lups_single) lups_saturated in
  { config; incore; boundaries; t_data; t_ecm;
    cy_per_lup = t_ecm /. lups;
    lups_single; mem_bytes_per_lup; lups_saturated; saturation_cores;
    lups_chip;
    flops_chip = lups_chip *. float_of_int a.flops }

let chip_scaling m a ~dims ~config ~max_threads =
  (* Staged on first use, so [max_threads <= 0] evaluates nothing. *)
  let staged = lazy (stage m a ~dims ~config) in
  let lups = float_of_int (Incore.lups_per_cl m) in
  let hz = Machine.cycles_per_second m in
  Array.init max_threads (fun i ->
      let n = i + 1 in
      let incore, lc = Lazy.force staged in
      let _, mem_bytes, _, t_ecm = single_at m incore lc n in
      (n, min (float_of_int n *. (hz *. lups /. t_ecm)) (ceiling m mem_bytes)))

let summary p =
  let data =
    String.concat " + "
      (Array.to_list (Array.map (fun t -> Printf.sprintf "%.1f" t) p.t_data))
  in
  Printf.sprintf
    "ECM: {%.1f || %.1f | %s} cy/CL -> T=%.1f cy/CL, %.2f GLUP/s single, \
     sat@%d cores, %.2f GLUP/s chip [%s]"
    p.incore.Incore.t_ol p.incore.Incore.t_nol data p.t_ecm
    (p.lups_single /. 1e9) p.saturation_cores (p.lups_chip /. 1e9)
    (Config.describe p.config)

let explain (m : Machine.t) (a : Analysis.t) p =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let i = p.incore in
  line "ECM model for %s on %s [%s]" a.Analysis.spec.Yasksite_stencil.Spec.name
    m.Machine.name (Config.describe p.config);
  line "";
  line "in-core (per %d-update cache line):" (Incore.lups_per_cl m);
  line "  arithmetic: %d FMA + %d add + %d mul per LUP -> T_OL = %.2f cy/CL"
    i.Incore.fma i.Incore.adds i.Incore.muls i.Incore.t_ol;
  line
    "  data moves: %.1f vector loads, %.1f stores, %.1f shuffles -> T_nOL = \
     %.2f cy/CL"
    i.Incore.vector_loads i.Incore.vector_stores i.Incore.shuffles
    i.Incore.t_nol;
  line "";
  line "data transfers (layer conditions at %g cache occupancy):" Lc.safety;
  Array.iteri
    (fun k (b : Lc.boundary) ->
      let cond =
        match b.Lc.condition with
        | Lc.All_fits -> "working set resident"
        | Lc.Outer_reuse -> "outer layer condition holds"
        | Lc.Row_reuse -> "row layer condition holds"
        | Lc.No_reuse -> "no inter-row reuse"
      in
      line "  %-4s %-30s %6.2f lines/CL  %6.1f B/LUP  T = %6.2f cy/CL"
        (b.Lc.level_name ^ ":") cond b.Lc.lines_per_cl b.Lc.bytes_per_lup
        p.t_data.(k))
    p.boundaries;
  line "";
  (match m.Machine.overlap with
  | Machine.Serial ->
      line
        "composition (serial transfers): T = max(T_OL, T_nOL + sum T_data) = \
         %.2f cy/CL"
        p.t_ecm
  | Machine.Overlapping ->
      line
        "composition (overlapping transfers): T = max(T_OL, T_nOL, T_data...) \
         = %.2f cy/CL"
        p.t_ecm);
  line "single core: %.1f MLUP/s (%.2f cy/LUP)" (p.lups_single /. 1e6)
    p.cy_per_lup;
  if p.lups_saturated = infinity then
    line "multicore: no memory ceiling (working set cache-resident)"
  else
    line
      "multicore: memory ceiling %.2f GLUP/s at %.1f B/LUP, saturating at %d \
       of %d cores"
      (p.lups_saturated /. 1e9) p.mem_bytes_per_lup p.saturation_cores
      m.Machine.cores;
  line "at %d threads: %.2f GLUP/s (%.2f GF/s)" p.config.Config.threads
    (p.lups_chip /. 1e9) (p.flops_chip /. 1e9);
  Buffer.contents buf
