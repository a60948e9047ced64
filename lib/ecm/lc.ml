module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Analysis = Yasksite_stencil.Analysis

type condition = All_fits | Outer_reuse | Row_reuse | No_reuse

type boundary = {
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

(* Everything the layer conditions read except the thread count. The
   thread count only sets each level's share of its cache; the working
   sets the conditions compare against that share, the read lines each
   condition implies, the footprint and the wavefront window are fixed
   by the kernel, the grid and the config.

   A fold block spans [fold.(d)] lattice layers in each outer dimension
   d, so consuming a folded line takes that many row/plane visits. This
   enters twice: the working set needed for reuse grows to at least the
   fold span, and when reuse is broken at a level, every uncached visit
   re-fetches the line (the fold span multiplies the miss count — the
   "wrong-dimension fold" penalty the simulator exhibits). *)
type stage = {
  caches : Cache_level.t array;
  lups : int;
  footprint : int;
  streaming_stores : bool;
  reuse : (float * (condition * float)) list;
      (* working set, and the condition and read lines per CL it
         establishes when it fits a level's budget; tried in order *)
  otherwise : condition * float;  (* when no working set fits *)
  wavefront : int;
  window : float;  (* bytes of the wavefront's moving window *)
}

let footprint_bytes (a : Analysis.t) ~dims =
  let points = Array.fold_left ( * ) 1 dims in
  (* All input fields plus the output grid. *)
  8 * points * (a.spec.n_fields + 1)

let stage (m : Machine.t) (a : Analysis.t) ~dims ~config =
  let rank = a.spec.rank in
  if Array.length dims <> rank then
    invalid_arg "Lc.boundaries: dims rank mismatch";
  let block = Config.block_extents config ~dims in
  let fold = Config.fold_extents config ~rank in
  (* Each read field's offsets; every sum below runs over the fields in
     [read_fields] order. *)
  let offs = List.map (Analysis.accesses_of_field a) a.read_fields in
  let sum per_field =
    List.fold_left (fun acc o -> acc +. per_field o) 0.0 offs
  in
  let outer = (Outer_reuse, sum (fun _ -> 1.0)) in
  let reuse, otherwise =
    match rank with
    | 1 ->
        (* A 1D stencil's reuse lives within a handful of lines. *)
        ([], outer)
    | 2 ->
        (* Stream along y (dim 0) within an x-block of bx (dim 1). *)
        let bx = block.(1) in
        let fy = fold.(0) in
        let ws_rows =
          sum (fun o ->
              float_of_int (max (span o ~dim:0) fy) *. float_of_int bx *. 8.0)
        in
        ( [ (ws_rows, outer) ],
          ( No_reuse,
            sum (fun o ->
                float_of_int (groups_along o ~dim:0 ~fold)
                *. float_of_int fy) ) )
    | _ ->
        (* 3D: stream along z (dim 0) within a (by, bx) block column. *)
        let by = block.(1) and bx = block.(2) in
        let fz = fold.(0) and fy = fold.(1) in
        let plane_bytes = float_of_int (by * bx * 8) in
        let row_bytes = float_of_int (bx * 8) in
        let ws_planes =
          sum (fun o -> float_of_int (max (span o ~dim:0) fz) *. plane_bytes)
        in
        let ws_rows =
          sum (fun o ->
              float_of_int (groups_along o ~dim:0 ~fold)
              *. float_of_int (max (span o ~dim:1) fy)
              *. row_bytes)
        in
        ( [ (ws_planes, outer);
            ( ws_rows,
              ( Row_reuse,
                sum (fun o ->
                    float_of_int (groups_along o ~dim:0 ~fold)
                    *. float_of_int fz) ) ) ],
          ( No_reuse,
            sum (fun o ->
                float_of_int (groups_along2 o ~dim0:0 ~dim1:1 ~fold)
                *. float_of_int (fz * fy)) ) )
  in
  (* Moving window of a two-grid wavefront: the fronts span
     [(wf-1) * (r0+1)] planes plus the stencil's own span, and the
     ping-pong pair shares that window. *)
  let wf = config.Config.wavefront in
  let plane_points =
    match rank with 1 -> 1 | 2 -> block.(1) | _ -> block.(1) * block.(2)
  in
  let r0 =
    List.fold_left
      (fun acc o -> List.fold_left (fun acc o -> max acc (abs o.(0))) acc o)
      0 offs
  in
  let planes_in_flight = ((wf - 1) * (r0 + 1)) + (2 * r0) + 1 in
  { caches = m.caches;
    lups = Incore.lups_per_cl m;
    footprint = footprint_bytes a ~dims;
    streaming_stores = config.Config.streaming_stores;
    reuse;
    otherwise;
    wavefront = wf;
    window = float_of_int (planes_in_flight * plane_points * 8 * 2) }

let rec first_fit ~budget otherwise = function
  | [] -> otherwise
  | (ws, r) :: rest ->
      if ws <= budget then r else first_fit ~budget otherwise rest

let boundary_at s threads k (lvl : Cache_level.t) =
  let size = lvl.size_bytes / min threads lvl.shared_by in
  let last = k = Array.length s.caches - 1 in
  (* Under domain decomposition each core works on its own slice, so
     residency is decided per core: slice footprint vs. cache share.
     Streaming stores bypass residency (MOVNT invalidates cached
     copies), so their memory line remains even when everything
     fits. *)
  let condition, lines_per_cl =
    if s.footprint / threads <= size then
      (All_fits, if s.streaming_stores && last then 1.0 else 0.0)
    else begin
      let condition, read_lines =
        first_fit ~budget:(safety *. float_of_int size) s.otherwise s.reuse
      in
      (* Streaming stores bypass every level and pay one line at the
         memory boundary (no write-allocate, no write-back). *)
      let store_lines =
        if s.streaming_stores then if last then 1.0 else 0.0 else 2.0
      in
      (condition, read_lines +. store_lines)
    end
  in
  { level_name = lvl.name;
    condition;
    lines_per_cl;
    bytes_per_lup =
      lines_per_cl *. float_of_int lvl.line_bytes /. float_of_int s.lups }

let window_fits s ~threads =
  s.wavefront <= 1
  ||
  let llc = s.caches.(Array.length s.caches - 1) in
  (* The moving window is the dominant occupant of the last-level
     cache, so it may use more of the capacity than a layer condition
     competing with streaming data. *)
  s.window <= 0.7 *. float_of_int (llc.size_bytes / min threads llc.shared_by)

let at s ~threads =
  let bs = Array.mapi (boundary_at s threads) s.caches in
  let mem = bs.(Array.length bs - 1).bytes_per_lup in
  let wf = s.wavefront in
  let mem_bytes =
    if wf > 1 && window_fits s ~threads then
      if s.streaming_stores then begin
        (* Streaming stores leave the window on every step; only the
           load side enjoys the temporal reuse. *)
        let store_bytes = 8.0 in
        let load_bytes = mem -. store_bytes in
        (max 0.0 load_bytes /. float_of_int wf) +. store_bytes
      end
      else mem /. float_of_int wf
    else mem
  in
  (bs, mem_bytes)

let boundaries m a ~dims ~config =
  fst (at (stage m a ~dims ~config) ~threads:config.Config.threads)

let mem_bytes_per_lup m a ~dims ~config =
  snd (at (stage m a ~dims ~config) ~threads:config.Config.threads)

let wavefront_fits m a ~dims ~config =
  config.Config.wavefront <= 1
  || window_fits (stage m a ~dims ~config) ~threads:config.Config.threads
