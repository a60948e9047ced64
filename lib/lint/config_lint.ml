module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Analysis = Yasksite_stencil.Analysis
module Config = Yasksite_ecm.Config
module Lc = Yasksite_ecm.Lc
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* YS305: structural rank mismatches. Anything downstream indexes the
   block/fold arrays by dimension, so nothing else is worth reporting
   until these hold. *)
let rule_rank (a : Analysis.t) ~dims (c : Config.t) =
  let rank = a.spec.rank in
  let arr_rule name arr =
    match arr with
    | Some v when Array.length v <> rank ->
        [ D.errorf ~loc:(D.Field name) ~code:"YS305"
            "%s has %d extents but the kernel is rank-%d" name
            (Array.length v) rank ]
    | Some v when Array.exists (fun e -> e < 0) v ->
        [ D.errorf ~loc:(D.Field name) ~code:"YS305"
            "%s has a negative extent" name ]
    | _ -> []
  in
  let dims_rule =
    if Array.length dims <> rank then
      [ D.errorf ~loc:(D.Field "dims") ~code:"YS305"
          "grid has %d dimensions but the kernel is rank-%d"
          (Array.length dims) rank ]
    else if Array.exists (fun d -> d <= 0) dims then
      [ D.errorf ~loc:(D.Field "dims") ~code:"YS305"
          "grid extents must be positive" ]
    else []
  in
  dims_rule @ arr_rule "block" c.block @ arr_rule "fold" c.fold

(* ------------------------------------------------------------------ *)
(* YS302: a fold extent that does not divide the grid extent leaves a
   remainder handled by scalar peel loops — legal, but the model (and
   YASK itself) assumes whole fold blocks. *)
let rule_fold_divides (a : Analysis.t) ~dims (c : Config.t) =
  match c.fold with
  | None -> []
  | Some fold ->
      List.concat
        (List.init a.spec.rank (fun d ->
             if fold.(d) > 1 && dims.(d) mod fold.(d) <> 0 then
               [ D.warningf ~loc:(D.Field "fold") ~code:"YS302"
                   "fold extent %d does not divide grid extent %d in \
                    dimension %d: the remainder runs as a scalar peel loop \
                    the model does not account for"
                   fold.(d) dims.(d) d ]
             else []))

(* YS308: the whole point of a multi-dimensional fold is to fill one
   SIMD register; any other product wastes lanes or spills. *)
let rule_fold_lanes (m : Machine.t) (c : Config.t) =
  match c.fold with
  | None -> []
  | Some fold ->
      let product = Array.fold_left ( * ) 1 fold in
      let lanes = m.simd.Machine.dp_lanes in
      if product <> 1 && product <> lanes then
        [ D.warningf ~loc:(D.Field "fold") ~code:"YS308"
            "fold product %d does not match the machine's SIMD width (%d \
             doubles): vector registers are %s"
            product lanes
            (if product < lanes then "partially filled" else "over-packed") ]
      else []

(* ------------------------------------------------------------------ *)
(* YS301: an explicit spatial block whose layer-condition working set
   exceeds even the largest per-thread cache share. Such a block
   restricts the sweep (costing loop overhead and halo traffic) without
   establishing reuse in any level — strictly worse than not blocking.
   The working-set formula mirrors the outer layer condition's in
   Lc.stage. *)

let span offsets ~dim =
  match List.map (fun o -> o.(dim)) offsets with
  | [] -> 0
  | d :: rest ->
      let lo = List.fold_left min d rest and hi = List.fold_left max d rest in
      hi - lo + 1

let block_working_set (a : Analysis.t) ~dims (c : Config.t) =
  let block = Config.block_extents c ~dims in
  let fold = Config.fold_extents c ~rank:a.spec.rank in
  let offs f = Analysis.accesses_of_field a f in
  match a.spec.rank with
  | 1 -> 0.0
  | 2 ->
      let bx = block.(1) and fy = fold.(0) in
      List.fold_left
        (fun acc f ->
          acc
          +. float_of_int (max (span (offs f) ~dim:0) fy)
             *. float_of_int bx *. 8.0)
        0.0 a.read_fields
  | _ ->
      let by = block.(1) and bx = block.(2) in
      let fz = fold.(0) in
      let plane_bytes = float_of_int (by * bx * 8) in
      List.fold_left
        (fun acc f ->
          acc +. (float_of_int (max (span (offs f) ~dim:0) fz) *. plane_bytes))
        0.0 a.read_fields

let largest_share (m : Machine.t) ~threads =
  Array.fold_left
    (fun acc (lvl : Cache_level.t) ->
      max acc (lvl.size_bytes / min threads lvl.shared_by))
    0 m.caches

(* Only explicit blocks that genuinely restrict the sweep are gated:
   model-generated candidates legitimately include oversized blocks
   (the model ranks them down on its own). *)
let restricting_block ~dims (c : Config.t) =
  match c.block with
  | None -> []
  | Some block ->
      List.filter_map
        (fun d ->
          if block.(d) > 0 && block.(d) < dims.(d) then Some d else None)
        (List.init (Array.length dims) (fun d -> d))

let rule_block_cache (m : Machine.t) (a : Analysis.t) ~dims (c : Config.t) =
  if a.spec.rank < 2 || restricting_block ~dims c = [] then []
  else begin
    let ws = block_working_set a ~dims c in
    let share = largest_share m ~threads:c.threads in
    let budget = Lc.safety *. float_of_int share in
    if ws > budget then
      [ D.errorf ~loc:(D.Field "block") ~code:"YS301"
          "block working set (%.0f KiB) exceeds the layer-condition budget \
           of every cache level (largest per-thread share %d KiB x safety \
           %.1f = %.0f KiB): the block restricts the sweep without \
           establishing reuse anywhere"
          (ws /. 1024.0) (share / 1024) Lc.safety (budget /. 1024.0) ]
    else []
  end

(* ------------------------------------------------------------------ *)
(* Smaller consistency rules *)

let rule_threads (m : Machine.t) (c : Config.t) =
  if c.threads > m.cores then
    [ D.warningf ~loc:(D.Field "threads") ~code:"YS307"
        "%d threads exceed the machine's %d cores: the model assumes one \
         thread per core, so predictions for oversubscribed runs are \
         unreliable"
        c.threads m.cores ]
  else []

let rule_wavefront_stores (c : Config.t) =
  if c.wavefront > 1 && c.streaming_stores then
    [ D.warningf ~loc:(D.Field "streaming_stores") ~code:"YS306"
        "streaming stores bypass the cache hierarchy, so the wavefront's \
         temporal reuse only applies to the load side; the combination \
         rarely pays off" ]
  else []

let rule_wavefront_fits (m : Machine.t) (a : Analysis.t) ~dims (c : Config.t) =
  if c.wavefront > 1 && not (Lc.wavefront_fits m a ~dims ~config:c) then
    [ D.warningf ~loc:(D.Field "wavefront") ~code:"YS309"
        "wavefront depth %d has a moving window larger than the last-level \
         cache share: temporal blocking brings no traffic reduction at this \
         depth"
        c.wavefront ]
  else []

(* ------------------------------------------------------------------ *)
(* Entry points *)

let config m a ~dims c =
  match rule_rank a ~dims c with
  | _ :: _ as structural -> structural
  | [] ->
      rule_block_cache m a ~dims c
      @ rule_fold_divides a ~dims c
      @ rule_fold_lanes m c @ rule_threads m c @ rule_wavefront_stores c
      @ rule_wavefront_fits m a ~dims c

let space m a ~dims configs =
  let cardinality =
    match configs with
    | [] ->
        [ D.errorf ~loc:(D.Field "space") ~code:"YS303"
            "the search space is empty: no configuration to evaluate" ]
    | [ only ] ->
        [ D.warningf ~loc:(D.Field "space") ~code:"YS304"
            "the search space holds a single configuration (%s): there is \
             nothing to tune"
            (Config.describe only) ]
    | _ -> []
  in
  (* Per-config findings, deduplicated: a space of hundreds of candidates
     sharing one defective fold should report it once. *)
  let seen = Hashtbl.create 16 in
  let per_config =
    List.concat_map
      (fun c ->
        List.filter
          (fun (d : D.t) ->
            let key = (d.code, d.message) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          (config m a ~dims c))
      configs
  in
  cardinality @ per_config
