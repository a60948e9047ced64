type layout = Linear | Folded of int array

let layout_of_fold = function None -> Linear | Some f -> Folded (Array.copy f)

type t = {
  dims : int array;
  halo : int array;
  left_pad : int array; (* halo rounded up to a fold boundary *)
  layout : layout;
  fold : int array; (* all ones when Linear *)
  total : int array; (* dims + 2*halo *)
  padded : int array; (* total rounded up to a fold multiple *)
  blocks : int array; (* padded / fold *)
  lanes : int; (* product of fold *)
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  base : int;
}

(* Address spaces are allocated with atomics so grids created from
   several domains at once (a parallel tuning sweep building its
   candidates' grids) can never be handed overlapping simulated
   address ranges. *)
type space = { next_base : int Atomic.t; alloc_count : int Atomic.t }

let first_base = 0x100000

let fresh_space () =
  { next_base = Atomic.make first_base; alloc_count = Atomic.make 0 }

let global_space = fresh_space ()

let page = 4096

(* Page-aligned consecutive allocations plus a per-allocation stagger of
   an odd number of cache lines, mimicking YASK's deliberate padding
   that keeps equally-indexed streams of different grids out of the same
   cache sets. *)
let stagger_lines = 9

let allocate_base space nbytes =
  let count = Atomic.fetch_and_add space.alloc_count 1 in
  let stagger = count mod 64 * stagger_lines * 64 in
  let reserved = (nbytes + stagger + page - 1) / page * page in
  Atomic.fetch_and_add space.next_base reserved + stagger

let product = Array.fold_left ( * ) 1

let round_up n m = (n + m - 1) / m * m

let create ?(space = global_space) ?halo ?(layout = Linear) ~dims () =
  let rank = Array.length dims in
  if rank < 1 || rank > 3 then invalid_arg "Grid.create: rank must be 1..3";
  Array.iter
    (fun d -> if d <= 0 then invalid_arg "Grid.create: non-positive extent")
    dims;
  let halo = match halo with None -> Array.make rank 0 | Some h -> Array.copy h in
  if Array.length halo <> rank then invalid_arg "Grid.create: halo rank mismatch";
  Array.iter
    (fun h -> if h < 0 then invalid_arg "Grid.create: negative halo")
    halo;
  let fold =
    match layout with
    | Linear -> Array.make rank 1
    | Folded f ->
        if Array.length f <> rank then
          invalid_arg "Grid.create: fold rank mismatch";
        Array.iter
          (fun x -> if x <= 0 then invalid_arg "Grid.create: non-positive fold")
          f;
        Array.copy f
  in
  let dims = Array.copy dims in
  (* Align the interior start to a fold boundary (YASK's halo padding),
     so folded layouts keep the interior block-aligned. *)
  let left_pad = Array.mapi (fun i h -> round_up h fold.(i)) halo in
  let total = Array.mapi (fun i d -> d + left_pad.(i) + halo.(i)) dims in
  let padded = Array.mapi (fun i tdim -> round_up tdim fold.(i)) total in
  let blocks = Array.mapi (fun i p -> p / fold.(i)) padded in
  let lanes = product fold in
  let len = product padded in
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill data 0.0;
  let base = allocate_base space (8 * len) in
  { dims; halo; left_pad; layout; fold; total; padded; blocks; lanes; data;
    base }

let rank t = Array.length t.dims

let dims t = Array.copy t.dims

let halo t = Array.copy t.halo

let layout t = t.layout

let length t = Bigarray.Array1.dim t.data

let base_address t = t.base

let row_major extents coords =
  let acc = ref 0 in
  for i = 0 to Array.length extents - 1 do
    acc := (!acc * extents.(i)) + coords.(i)
  done;
  !acc

let offset_of t idx =
  if Array.length idx <> rank t then invalid_arg "Grid.offset_of: rank mismatch";
  let r = rank t in
  let c = Array.make r 0 in
  for i = 0 to r - 1 do
    if idx.(i) < -t.halo.(i) || idx.(i) >= t.dims.(i) + t.halo.(i) then
      invalid_arg
        (Printf.sprintf "Grid.offset_of: coordinate %d out of range in dim %d"
           idx.(i) i);
    c.(i) <- idx.(i) + t.left_pad.(i)
  done;
  match t.layout with
  | Linear -> row_major t.padded c
  | Folded _ ->
      let b = Array.mapi (fun i ci -> ci / t.fold.(i)) c in
      let o = Array.mapi (fun i ci -> ci mod t.fold.(i)) c in
      (row_major t.blocks b * t.lanes) + row_major t.fold o

let get t idx = Bigarray.Array1.get t.data (offset_of t idx)

let set t idx v = Bigarray.Array1.set t.data (offset_of t idx) v

let raw t = t.data

let unsafe_get_flat t off = Bigarray.Array1.unsafe_get t.data off

let left_pad t = Array.copy t.left_pad

(* The flat offset of any point decomposes as
   [row_base (outer coords) + last_dim_offsets.(last padded coord)]:
   the innermost dimension's contribution is separable in both layouts
   because folding treats dimensions independently. This is what lets a
   kernel plan hoist per-row bases out of the inner loop and walk the
   row through one precomputed table. *)

let unit_stride t =
  match t.layout with
  | Linear -> true
  | Folded _ -> t.fold.(rank t - 1) = t.lanes

let last_dim_offsets t =
  let last = rank t - 1 in
  let n = t.padded.(last) in
  match t.layout with
  | Linear -> Array.init n (fun c -> c)
  | Folded _ ->
      let f = t.fold.(last) in
      Array.init n (fun c -> (c / f * t.lanes) + (c mod f))

let row_base t idx =
  let r = rank t in
  if Array.length idx <> r - 1 then
    invalid_arg "Grid.row_base: expected rank-1 outer coordinates";
  match t.layout with
  | Linear ->
      let acc = ref 0 in
      for i = 0 to r - 2 do
        acc := (!acc * t.padded.(i)) + idx.(i) + t.left_pad.(i)
      done;
      !acc * t.padded.(r - 1)
  | Folded _ ->
      let b = ref 0 and o = ref 0 in
      for i = 0 to r - 2 do
        let c = idx.(i) + t.left_pad.(i) in
        b := (!b * t.blocks.(i)) + (c / t.fold.(i));
        o := (!o * t.fold.(i)) + (c mod t.fold.(i))
      done;
      (!b * t.blocks.(r - 1) * t.lanes) + (!o * t.fold.(r - 1))

(* Row-major iteration over the box [0, extents). *)
let iter_box extents ~f =
  let r = Array.length extents in
  let idx = Array.make r 0 in
  let rec go d =
    if d = r then f idx
    else
      for i = 0 to extents.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let iter_interior t ~f = iter_box t.dims ~f

let fill t ~f =
  iter_interior t ~f:(fun idx -> set t idx (f idx))

let fill_all t v = Bigarray.Array1.fill t.data v

let copy_interior ~src ~dst =
  if src.dims <> dst.dims then invalid_arg "Grid.copy_interior: dims mismatch";
  iter_interior src ~f:(fun idx -> set dst idx (get src idx))

(* Iterate over all points of the total box (interior + halo) in interior
   coordinates, i.e. each coordinate ranges over [-halo, dim + halo). *)
let iter_total t ~f =
  let idx = Array.make (rank t) 0 in
  let rec go d =
    if d = rank t then f idx
    else
      for i = -t.halo.(d) to t.dims.(d) + t.halo.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let is_interior t idx =
  let ok = ref true in
  Array.iteri (fun i x -> if x < 0 || x >= t.dims.(i) then ok := false) idx;
  !ok

let halo_dirichlet t v =
  iter_total t ~f:(fun idx -> if not (is_interior t idx) then set t idx v)

let halo_periodic t =
  Array.iteri
    (fun i h ->
      if h > t.dims.(i) then
        invalid_arg "Grid.halo_periodic: halo wider than interior")
    t.halo;
  let wrapped = Array.make (rank t) 0 in
  iter_total t ~f:(fun idx ->
      if not (is_interior t idx) then begin
        Array.iteri
          (fun i x ->
            let d = t.dims.(i) in
            wrapped.(i) <- ((x mod d) + d) mod d)
          idx;
        set t idx (get t wrapped)
      end)

let max_abs_diff a b =
  if a.dims <> b.dims then invalid_arg "Grid.max_abs_diff: dims mismatch";
  let worst = ref 0.0 in
  iter_interior a ~f:(fun idx ->
      worst := max !worst (abs_float (get a idx -. get b idx)));
  !worst

let l2_norm t =
  let acc = ref 0.0 in
  iter_interior t ~f:(fun idx ->
      let v = get t idx in
      acc := !acc +. (v *. v));
  sqrt !acc

let footprint_bytes t = 8 * length t
