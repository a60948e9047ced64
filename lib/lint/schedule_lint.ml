(* Schedule-legality analysis: the YS4xx rule family.

   The tuner and advisor generate thousands of candidate (config, grid)
   schedules; this pass decides statically — by dependence-distance
   reasoning over the kernel's access set — which of them are legal to
   execute, before the ECM model scores them or the domain pool runs
   them. Every rule here has a dynamic counterpart in the engine's
   shadow-memory sanitizer (YS45x traps), so a "legal" verdict is
   falsifiable by execution and an "illegal" verdict can be demonstrated
   by a concrete trap when the gates are bypassed. *)

module D = Diagnostic
module Analysis = Yasksite_stencil.Analysis
module Spec = Yasksite_stencil.Spec
module Config = Yasksite_ecm.Config
module Grid = Yasksite_grid.Grid

let dims_str a =
  String.concat "x" (Array.to_list (Array.map string_of_int a))

let effective_stagger (info : Analysis.t) (config : Config.t) =
  match config.Config.wavefront_stagger with
  | Some s -> s
  | None -> info.Analysis.radius.(0) + 1

(* Max |offset| per dimension over the reads of one field. *)
let field_radius (info : Analysis.t) ~rank field =
  let r = Array.make rank 0 in
  List.iter
    (fun off ->
      Array.iteri (fun d o -> r.(d) <- max r.(d) (abs o)) off)
    (Analysis.accesses_of_field info field);
  r

(* Max forward (positive) and backward (negative) offsets along the
   streamed dimension over all reads. These — not the radius — are the
   dependence distances the wavefront stagger must clear, and they
   constrain it differently (see [rule_stagger]): an asymmetric stencil
   has a different legal minimum than the radius suggests. *)
let forward_reach (info : Analysis.t) =
  List.fold_left
    (fun acc (a : Yasksite_stencil.Expr.access) ->
      max acc a.Yasksite_stencil.Expr.offsets.(0))
    0 info.Analysis.accesses

let backward_reach (info : Analysis.t) =
  List.fold_left
    (fun acc (a : Yasksite_stencil.Expr.access) ->
      max acc (-a.Yasksite_stencil.Expr.offsets.(0)))
    0 info.Analysis.accesses

(* ------------------------------------------------------------------ *)
(* Rules over (spec, dims, config): the candidate as the tuner sees it. *)

(* YS400 — wavefront stagger vs. dependence distance. A depth-d
   wavefront executes time steps t and t+1 in the same front, with step
   t trailing step t-1 by [stagger] planes along the streamed
   dimension, and the two time levels ping-ponging between two buffers.
   Two dependences constrain the stagger s:

   - flow: step t at plane z reads version t of plane z+o, produced by
     step t-1 at front (z+o) + (t-1)*s; the read happens at front
     z + t*s. Produced strictly earlier iff s >= o + 1 for every read
     offset o — the binding one is the forward reach fwd. s <= fwd - 1
     reads planes a later front will produce (version skew); s = fwd
     reads planes step t-1 wrote in this very front (order dependence).

   - anti: version t of plane p lives in the buffer step t+1 overwrites
     (with version t+2) at front p + (t+1)*s; the last read of it is by
     the most backward offset at front p + t*s + back. The read
     precedes the overwrite iff s >= back — equality is safe because
     within a front the reading step t runs before the overwriting
     step t+1.

   Legal minimum: max(fwd + 1, back). For a symmetric radius-r stencil
   this is the classic r + 1; asymmetric (upwind/downwind) stencils get
   a tighter or looser bound than the radius suggests. *)
let rule_stagger info ~dims:_ (config : Config.t) =
  if config.Config.wavefront <= 1 then []
  else
    let fwd = forward_reach info in
    let back = backward_reach info in
    let min_legal = max (fwd + 1) back in
    let s = effective_stagger info config in
    if s >= min_legal then []
    else
      [ D.errorf ~loc:(D.Field "wavefront_stagger") ~code:"YS400"
          "wavefront stagger %d is below the legal minimum %d (forward \
           reach %d, backward reach %d): step t would %s"
          s min_legal fwd back
          (if s < fwd then "read planes step t-1 has not yet produced"
           else if s = fwd then
             "read planes step t-1 is writing in the same front"
           else
             "re-read planes step t+1 already overwrote (ping-pong \
              buffer reuse)") ]

(* YS401 — the temporal engine ping-pongs exactly two versions of one
   field; a multi-input kernel has no second buffer for its other
   fields' time levels. *)
let rule_single_field info (config : Config.t) =
  let n = info.Analysis.spec.Spec.n_fields in
  if config.Config.wavefront > 1 && n <> 1 then
    [ D.errorf ~loc:(D.Field "wavefront") ~code:"YS401"
        "temporal wavefront requires a single input field, kernel reads %d"
        n ]
  else []

(* YS408 — a fold wider than the grid folds ghost cells into every
   vector: the schedule's unit of work does not fit the iteration
   space. *)
let rule_fold_overflow ~dims (config : Config.t) =
  match config.Config.fold with
  | None -> []
  | Some f when Array.length f <> Array.length dims -> []
      (* rank mismatch is YS305 (config lint) *)
  | Some f ->
      let bad = ref [] in
      Array.iteri
        (fun d fd ->
          if fd > dims.(d) then
            bad :=
              D.errorf ~loc:(D.Field "fold") ~code:"YS408"
                "fold extent %d exceeds the grid extent %d in dimension %d"
                fd dims.(d) d
              :: !bad)
        f;
      List.rev !bad

let rule_rank info ~dims =
  let rank = info.Analysis.spec.Spec.rank in
  if Array.length dims <> rank then
    [ D.errorf ~code:"YS409"
        "schedule is for a rank-%d kernel but the grid is %s (rank %d)" rank
        (dims_str dims) (Array.length dims) ]
  else []

let schedule info ~dims config =
  rule_rank info ~dims
  @ rule_stagger info ~dims config
  @ rule_single_field info config
  @ rule_fold_overflow ~dims config

(* Rules for an explicit [Wavefront.steps] invocation: the temporal
   engine structurally needs a single field even at depth 1 (there is
   only one ping-pong buffer pair), and the stagger rule as above. *)
let wavefront_rules info ~dims config =
  let n = info.Analysis.spec.Spec.n_fields in
  rule_rank info ~dims
  @ rule_stagger info ~dims config
  @ (if n <> 1 then
       [ D.errorf ~loc:(D.Field "wavefront") ~code:"YS401"
           "temporal wavefront requires a single input field, kernel reads \
            %d" n ]
     else [])

(* ------------------------------------------------------------------ *)
(* Rules over concrete grids: halo sufficiency and aliasing. *)

let ranges_overlap (a_lo, a_hi) (b_lo, b_hi) = a_lo < b_hi && b_lo < a_hi

let grid_range g =
  let base = Grid.base_address g in
  (base, base + Grid.footprint_bytes g)

(* YS403 — flow through memory: if an input shares storage with the
   output and the stencil reads any neighbour of the write point, the
   sweep reads cells it has already updated (or, across pool slices,
   cells another slice is updating). A pointwise (radius-0) read of the
   aliased field is the one legal in-place pattern: each point reads
   its own cell before writing it. *)
let rule_alias info ~inputs ~output =
  let rank = info.Analysis.spec.Spec.rank in
  let out_range = grid_range output in
  let seen = ref [] in
  Array.iteri
    (fun i g ->
      if
        ranges_overlap (grid_range g) out_range
        && (not (List.mem i !seen))
        && Array.exists (fun r -> r > 0) (field_radius info ~rank i)
      then begin
        seen := i :: !seen;
        ()
      end)
    inputs;
  List.rev_map
    (fun i ->
      D.errorf ~code:"YS403"
        "input field %d aliases the output grid while the stencil reads \
         its neighbourhood (radius > 0): the sweep would read cells it \
         already updated"
        i)
    !seen

(* YS404 — the sweep reads up to radius cells beyond the interior (plus
   any region extension on extended sweeps); a thinner halo sends those
   reads out of the allocation. *)
let rule_halo ?extend info ~inputs =
  let rank = info.Analysis.spec.Spec.rank in
  let ext d =
    match extend with
    | Some e when Array.length e = rank -> e.(d)
    | _ -> 0
  in
  let ds = ref [] in
  Array.iteri
    (fun i g ->
      if Array.length (Grid.dims g) = rank then begin
        let need = field_radius info ~rank i in
        let have = Grid.halo g in
        Array.iteri
          (fun d r ->
            if have.(d) < r + ext d then
              ds :=
                D.errorf ~code:"YS404"
                  "input field %d has a halo of %d in dimension %d but the \
                   %ssweep reads up to %d cells out"
                  i have.(d) d
                  (if ext d > 0 then "extended " else "")
                  (r + ext d)
                :: !ds)
          need
      end)
    inputs;
  List.rev !ds

(* YS404 (extended sweeps) — the output is written up to the extension
   beyond the interior; the allocation must hold those cells. *)
let rule_extend_output ?extend ~output () =
  match extend with
  | None -> []
  | Some e ->
      let have = Grid.halo output in
      let ds = ref [] in
      if Array.length have = Array.length e then
        Array.iteri
          (fun d x ->
            if x > have.(d) then
              ds :=
                D.errorf ~code:"YS404"
                  "the extended sweep writes %d cell(s) past the interior \
                   in dimension %d but the output halo is only %d wide"
                  x d have.(d)
                :: !ds)
          e;
      List.rev !ds

(* YS405 — the candidate claims a vector-folded layout; executing it
   over grids laid out differently measures a different schedule than
   the model scored, and the vec-unit accounting is wrong. *)
let rule_layout (config : Config.t) ~inputs ~output =
  match config.Config.fold with
  | None -> []
  | Some f ->
      let ok g =
        match Grid.layout g with
        | Grid.Folded lf -> lf = f
        | Grid.Linear -> Array.for_all (fun x -> x = 1) f
      in
      let oks =
        Array.to_list (Array.map (fun g -> ok g) inputs) @ [ ok output ]
      in
      if List.for_all Fun.id oks then []
      else
        [ D.errorf ~loc:(D.Field "fold") ~code:"YS405"
            "schedule claims vector fold %s but the grids are not laid out \
             that way"
            (dims_str f) ]

let rule_grid_dims info ~inputs ~output =
  let rank = info.Analysis.spec.Spec.rank in
  let odims = Grid.dims output in
  let ds = ref [] in
  if Array.length inputs < info.Analysis.spec.Spec.n_fields then
    ds :=
      D.errorf ~code:"YS409" "kernel reads %d field%s but only %d grid%s given"
        info.Analysis.spec.Spec.n_fields
        (if info.Analysis.spec.Spec.n_fields = 1 then "" else "s")
        (Array.length inputs)
        (if Array.length inputs = 1 then " is" else "s are")
      :: !ds;
  if Array.length odims <> rank then
    ds :=
      D.errorf ~code:"YS409"
        "output grid is %s (rank %d) but the kernel is rank %d"
        (dims_str odims) (Array.length odims) rank
      :: !ds;
  Array.iteri
    (fun i g ->
      if Grid.dims g <> odims then
        ds :=
          D.errorf ~code:"YS409"
            "input field %d is %s but the output is %s" i
            (dims_str (Grid.dims g)) (dims_str odims)
          :: !ds)
    inputs;
  List.rev !ds

let grids ?extend info config ~inputs ~output =
  let structural = rule_grid_dims info ~inputs ~output in
  if structural <> [] then structural
  else
    rule_alias info ~inputs ~output
    @ rule_halo ?extend info ~inputs
    @ rule_extend_output ?extend ~output ()
    @ rule_layout config ~inputs ~output

(* ------------------------------------------------------------------ *)
(* YS406 — parallel-slice disjointness: the boxes assigned to pool
   slices must partition the iteration space. Disjoint in-bounds boxes
   whose volumes sum to the whole space are a partition. *)

let volume (lo, hi) =
  Array.fold_left ( * ) 1 (Array.mapi (fun d l -> max 0 (hi.(d) - l)) lo)

let box_str (lo, hi) = Printf.sprintf "[%s..%s)" (dims_str lo) (dims_str hi)

let boxes_overlap (a_lo, a_hi) (b_lo, b_hi) =
  let rank = Array.length a_lo in
  let sep = ref false in
  for d = 0 to rank - 1 do
    if a_hi.(d) <= b_lo.(d) || b_hi.(d) <= a_lo.(d) then sep := true
  done;
  (not !sep) && volume (a_lo, a_hi) > 0 && volume (b_lo, b_hi) > 0

let partition ~dims slices =
  let rank = Array.length dims in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iteri
    (fun i (lo, hi) ->
      if Array.length lo <> rank || Array.length hi <> rank then
        add
          (D.errorf ~code:"YS406" "slice %d has rank %d, iteration space %s"
             i (Array.length lo) (dims_str dims))
      else
        Array.iteri
          (fun d l ->
            if l < 0 || hi.(d) > dims.(d) then
              add
                (D.errorf ~code:"YS406"
                   "slice %d %s leaves the iteration space %s in dimension \
                    %d"
                   i (box_str (lo, hi)) (dims_str dims) d))
          lo)
    slices;
  if !ds = [] then begin
    let arr = Array.of_list slices in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if boxes_overlap arr.(i) arr.(j) then
          add
            (D.errorf ~code:"YS406"
               "slices %d %s and %d %s overlap: the same output cells would \
                be written twice"
               i (box_str arr.(i)) j (box_str arr.(j)))
      done
    done;
    if !ds = [] then begin
      let covered = List.fold_left (fun acc b -> acc + volume b) 0 slices in
      let total = Array.fold_left ( * ) 1 dims in
      if covered <> total then
        add
          (D.errorf ~code:"YS406"
             "slices cover %d of %d cells: the partition leaves output \
              cells unwritten"
             covered total)
    end
  end;
  List.rev !ds

(* ------------------------------------------------------------------ *)

let legal info ~dims config =
  not (D.has_errors (schedule info ~dims config))

let dedup ds =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : D.t) ->
      let key = (d.D.code, d.D.message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ds

let space info ~dims configs =
  dedup (List.concat_map (fun c -> schedule info ~dims c) configs)
