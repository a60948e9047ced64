(* The reference the staged ECM model is compared against bit for bit:
   the layer-condition analysis and [Model.predict] evaluated the direct
   way. [Model.predict] re-runs the whole single-core model, with two
   layer-condition passes, for every core count the saturation search
   visits. It shares no code with the library's [Lc] and [Model] beyond
   their record types, so an agreement is evidence, not an echo. *)

module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Analysis = Yasksite_stencil.Analysis
module Config = Yasksite_ecm.Config
module Incore = Yasksite_ecm.Incore

module Lc = struct
  type condition = Yasksite_ecm.Lc.condition =
    | All_fits
    | Outer_reuse
    | Row_reuse
    | No_reuse

  type boundary = Yasksite_ecm.Lc.boundary = {
    level_name : string;
    condition : condition;
    lines_per_cl : float;
    bytes_per_lup : float;
  }

  let safety = 0.5

  let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

  (* Distinct fold-group counts of a field's offsets along one dimension,
     and along pairs of dimensions. *)
  let groups_along offsets_list ~dim ~fold =
    List.map (fun o -> floor_div o.(dim) fold.(dim)) offsets_list
    |> List.sort_uniq compare |> List.length

  let groups_along2 offsets_list ~dim0 ~dim1 ~fold =
    List.map
      (fun o ->
        (floor_div o.(dim0) fold.(dim0), floor_div o.(dim1) fold.(dim1)))
      offsets_list
    |> List.sort_uniq compare |> List.length

  let span offsets_list ~dim =
    let ds = List.map (fun o -> o.(dim)) offsets_list in
    match ds with
    | [] -> 0
    | d :: rest ->
        let lo = List.fold_left min d rest and hi = List.fold_left max d rest in
        hi - lo + 1

  (* Per-field traffic multiplicity (line fetches per consumed line) at a
     cache level of [size] bytes, for the given block extents and fold.

     A fold block spans [fold.(d)] lattice layers in each outer dimension
     d, so consuming a folded line takes that many row/plane visits. This
     enters twice: the working set needed for reuse grows to at least the
     fold span, and when reuse is broken at this level, every uncached
     visit re-fetches the line (the fold span multiplies the miss count —
     the "wrong-dimension fold" penalty the simulator exhibits). *)
  let field_multiplicities (a : Analysis.t) ~block ~fold ~size =
    let rank = a.spec.rank in
    let fields = a.read_fields in
    let offs f = Analysis.accesses_of_field a f in
    let budget = safety *. float_of_int size in
    match rank with
    | 1 ->
        (* A 1D stencil's reuse lives within a handful of lines. *)
        (Outer_reuse, List.map (fun f -> (f, 1.0)) fields)
    | 2 ->
        (* Stream along y (dim 0) within an x-block of bx (dim 1). *)
        let bx = block.(1) in
        let fy = fold.(0) in
        let ws_rows =
          List.fold_left
            (fun acc f ->
              acc
              +. float_of_int (max (span (offs f) ~dim:0) fy)
                 *. float_of_int bx *. 8.0)
            0.0 fields
        in
        if ws_rows <= budget then
          (Outer_reuse, List.map (fun f -> (f, 1.0)) fields)
        else
          ( No_reuse,
            List.map
              (fun f ->
                ( f,
                  float_of_int (groups_along (offs f) ~dim:0 ~fold)
                  *. float_of_int fy ))
              fields )
    | _ ->
        (* 3D: stream along z (dim 0) within a (by, bx) block column. *)
        let by = block.(1) and bx = block.(2) in
        let fz = fold.(0) and fy = fold.(1) in
        let plane_bytes = float_of_int (by * bx * 8) in
        let ws_planes =
          List.fold_left
            (fun acc f ->
              acc
              +. (float_of_int (max (span (offs f) ~dim:0) fz) *. plane_bytes))
            0.0 fields
        in
        if ws_planes <= budget then
          (Outer_reuse, List.map (fun f -> (f, 1.0)) fields)
        else begin
          let row_bytes = float_of_int (bx * 8) in
          let ws_rows =
            List.fold_left
              (fun acc f ->
                let z_layers = groups_along (offs f) ~dim:0 ~fold in
                acc
                +. float_of_int z_layers
                   *. float_of_int (max (span (offs f) ~dim:1) fy)
                   *. row_bytes)
              0.0 fields
          in
          if ws_rows <= budget then
            ( Row_reuse,
              List.map
                (fun f ->
                  ( f,
                    float_of_int (groups_along (offs f) ~dim:0 ~fold)
                    *. float_of_int fz ))
                fields )
          else
            ( No_reuse,
              List.map
                (fun f ->
                  ( f,
                    float_of_int (groups_along2 (offs f) ~dim0:0 ~dim1:1 ~fold)
                    *. float_of_int (fz * fy) ))
                fields )
        end

  let footprint_bytes (a : Analysis.t) ~dims =
    let points = Array.fold_left ( * ) 1 dims in
    (* All input fields plus the output grid. *)
    8 * points * (a.spec.n_fields + 1)

  let boundaries (m : Machine.t) (a : Analysis.t) ~dims ~config =
    if Array.length dims <> a.spec.rank then
      invalid_arg "Lc.boundaries: dims rank mismatch";
    let block = Config.block_extents config ~dims in
    let fold = Config.fold_extents config ~rank:a.spec.rank in
    let lups = Incore.lups_per_cl m in
    let footprint = footprint_bytes a ~dims in
    let nt = config.Config.streaming_stores in
    let n_levels = Array.length m.caches in
    Array.mapi
      (fun k (lvl : Cache_level.t) ->
        let threads = config.Config.threads in
        let size = lvl.size_bytes / min threads lvl.shared_by in
        (* Streaming stores bypass every level and pay one line at the
           memory boundary (no write-allocate, no write-back). *)
        let store_lines =
          if nt then if k = n_levels - 1 then 1.0 else 0.0 else 2.0
        in
        (* Under domain decomposition each core works on its own slice, so
           residency is decided per core: slice footprint vs. cache share.
           Streaming stores bypass residency (MOVNT invalidates cached
           copies), so their memory line remains even when everything
           fits. *)
        if footprint / threads <= size then begin
          let lines_per_cl = if nt && k = n_levels - 1 then 1.0 else 0.0 in
          { level_name = lvl.name;
            condition = All_fits;
            lines_per_cl;
            bytes_per_lup =
              lines_per_cl
              *. float_of_int lvl.line_bytes
              /. float_of_int lups }
        end
        else begin
          let condition, mults =
            field_multiplicities a ~block ~fold ~size
          in
          let read_lines =
            List.fold_left (fun acc (_, mult) -> acc +. mult) 0.0 mults
          in
          let lines_per_cl = read_lines +. store_lines in
          { level_name = lvl.name;
            condition;
            lines_per_cl;
            bytes_per_lup =
              lines_per_cl
              *. float_of_int lvl.line_bytes
              /. float_of_int lups }
        end)
      m.caches

  let wavefront_fits (m : Machine.t) (a : Analysis.t) ~dims ~config =
    let wf = config.Config.wavefront in
    if wf <= 1 then true
    else begin
      let block = Config.block_extents config ~dims in
      let llc = Machine.last_level m in
      let size =
        llc.size_bytes / min config.Config.threads llc.shared_by
      in
      (* Moving window of a two-grid wavefront: the fronts span
         [(wf-1) * (r0+1)] planes plus the stencil's own span, and the
         ping-pong pair shares that window. *)
      let rank = a.spec.rank in
      let plane_points =
        match rank with
        | 1 -> 1
        | 2 -> block.(1)
        | _ -> block.(1) * block.(2)
      in
      let r0 =
        List.fold_left
          (fun acc f ->
            List.fold_left
              (fun acc o -> max acc (abs o.(0)))
              acc
              (Analysis.accesses_of_field a f))
          0 a.read_fields
      in
      let planes_in_flight = ((wf - 1) * (r0 + 1)) + (2 * r0) + 1 in
      let ws = float_of_int (planes_in_flight * plane_points * 8 * 2) in
      (* The moving window is the dominant occupant of the last-level
         cache, so it may use more of the capacity than a layer condition
         competing with streaming data. *)
      ws <= 0.7 *. float_of_int size
    end

  let mem_bytes_per_lup (m : Machine.t) (a : Analysis.t) ~dims ~config =
    let bs = boundaries m a ~dims ~config in
    let mem = bs.(Array.length bs - 1) in
    let wf = config.Config.wavefront in
    if wf > 1 && wavefront_fits m a ~dims ~config then
      if config.Config.streaming_stores then begin
        (* Streaming stores leave the window on every step; only the load
           side enjoys the temporal reuse. *)
        let store_bytes = 8.0 in
        let load_bytes = mem.bytes_per_lup -. store_bytes in
        (max 0.0 load_bytes /. float_of_int wf) +. store_bytes
      end
      else mem.bytes_per_lup /. float_of_int wf
    else mem.bytes_per_lup
end

module Model = struct
  type prediction = Yasksite_ecm.Model.prediction = {
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

  let single_core_t_ecm (m : Machine.t) (a : Analysis.t) ~dims ~config =
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
    let boundaries = Lc.boundaries m a ~dims ~config in
    let lups = Incore.lups_per_cl m in
    let n = Array.length boundaries in
    (* The memory boundary carries the temporal-blocking and streaming-
       store adjustments; Lc.mem_bytes_per_lup is the single source of
       truth for them. *)
    let mem_bytes = Lc.mem_bytes_per_lup m a ~dims ~config in
    let t_data =
      Array.mapi
        (fun k (b : Lc.boundary) ->
          let bytes_per_lup = if k = n - 1 then mem_bytes else b.bytes_per_lup in
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
    (incore, boundaries, t_data, t_ecm)

  let predict (m : Machine.t) (a : Analysis.t) ~dims ~config =
    let incore, boundaries, t_data, t_ecm =
      single_core_t_ecm m a ~dims ~config
    in
    let lups = float_of_int (Incore.lups_per_cl m) in
    let hz = Machine.cycles_per_second m in
    let lups_single = hz *. lups /. t_ecm in
    let mem_bytes_per_lup = Lc.mem_bytes_per_lup m a ~dims ~config in
    let lups_saturated =
      if mem_bytes_per_lup <= 0.0 then infinity
      else m.mem_bw_chip_gbs *. 1e9 /. mem_bytes_per_lup
    in
    (* Per-core performance at n threads (shared caches divide up). *)
    let single_at n =
      let cfg = { config with Config.threads = n } in
      let _, _, _, t = single_core_t_ecm m a ~dims ~config:cfg in
      hz *. lups /. t
    in
    let chip_at n = min (float_of_int n *. single_at n) lups_saturated in
    let saturation_cores =
      let rec find n =
        if n >= m.cores then m.cores
        else if float_of_int n *. single_at n >= lups_saturated then n
        else find (n + 1)
      in
      if lups_saturated = infinity then m.cores else find 1
    in
    let lups_chip = chip_at config.Config.threads in
    { config; incore; boundaries; t_data; t_ecm;
      cy_per_lup = t_ecm /. lups;
      lups_single; mem_bytes_per_lup; lups_saturated; saturation_cores;
      lups_chip;
      flops_chip = lups_chip *. float_of_int a.flops }
end
