module Grid = Yasksite_grid.Grid
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let test_create_validation () =
  Alcotest.check_raises "rank 0" (Invalid_argument "Grid.create: rank must be 1..3")
    (fun () -> ignore (Grid.create ~dims:[||] ()));
  Alcotest.check_raises "bad extent"
    (Invalid_argument "Grid.create: non-positive extent") (fun () ->
      ignore (Grid.create ~dims:[| 4; 0 |] ()));
  Alcotest.check_raises "halo rank"
    (Invalid_argument "Grid.create: halo rank mismatch") (fun () ->
      ignore (Grid.create ~halo:[| 1 |] ~dims:[| 4; 4 |] ()))

let test_get_set_roundtrip () =
  let g = Grid.create ~halo:[| 1; 2; 1 |] ~dims:[| 3; 4; 5 |] () in
  Grid.set g [| 1; 2; 3 |] 42.0;
  Alcotest.(check (float 0.0)) "roundtrip" 42.0 (Grid.get g [| 1; 2; 3 |]);
  Grid.set g [| -1; -2; -1 |] 7.0;
  Alcotest.(check (float 0.0)) "halo roundtrip" 7.0 (Grid.get g [| -1; -2; -1 |]);
  Alcotest.check_raises "oob"
    (Invalid_argument "Grid.offset_of: coordinate 4 out of range in dim 0")
    (fun () -> ignore (Grid.get g [| 4; 0; 0 |]))

(* Derive a deterministic random grid shape from a seed. *)
let shape_of_seed seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let dims = Array.init rank (fun _ -> 2 + Prng.int rng ~bound:7) in
  let halo = Array.init rank (fun _ -> Prng.int rng ~bound:3) in
  let layout =
    if Prng.bool rng then Grid.Linear
    else Grid.Folded (Array.init rank (fun _ -> 1 + Prng.int rng ~bound:3))
  in
  (rng, rank, dims, halo, layout)

let offsets_bijective =
  QCheck.Test.make ~name:"offset_of is injective over the halo box" ~count:100
    QCheck.small_int (fun seed ->
      let _, rank, dims, halo, layout = shape_of_seed seed in
      let g = Grid.create ~halo ~layout ~dims () in
      let seen = Hashtbl.create 97 in
      let ok = ref true in
      let idx = Array.make rank 0 in
      let rec go d =
        if d = rank then begin
          let o = Grid.offset_of g idx in
          if o < 0 || o >= Grid.length g || Hashtbl.mem seen o then ok := false
          else Hashtbl.add seen o ()
        end
        else
          for i = -halo.(d) to dims.(d) + halo.(d) - 1 do
            idx.(d) <- i;
            go (d + 1)
          done
      in
      go 0;
      !ok)

let test_fold_alignment () =
  (* The interior origin must start a fold block (YASK halo padding). *)
  let g =
    Grid.create ~halo:[| 1; 1; 1 |] ~layout:(Grid.Folded [| 2; 2; 2 |])
      ~dims:[| 6; 6; 6 |] ()
  in
  Alcotest.(check int) "origin block-aligned" 0
    (Grid.offset_of g [| 0; 0; 0 |] mod 8)

let test_fill_and_iter () =
  let g = Grid.create ~halo:[| 1; 1 |] ~dims:[| 3; 4 |] () in
  Grid.fill g ~f:(fun i -> float_of_int ((i.(0) * 10) + i.(1)));
  Alcotest.(check (float 0.0)) "value" 23.0 (Grid.get g [| 2; 3 |]);
  let count = ref 0 in
  Grid.iter_interior g ~f:(fun _ -> incr count);
  Alcotest.(check int) "iter count" 12 !count

let test_halo_dirichlet () =
  let g = Grid.create ~halo:[| 1; 1 |] ~dims:[| 3; 3 |] () in
  Grid.fill g ~f:(fun _ -> 1.0);
  Grid.halo_dirichlet g 9.0;
  Alcotest.(check (float 0.0)) "halo set" 9.0 (Grid.get g [| -1; 0 |]);
  Alcotest.(check (float 0.0)) "corner halo" 9.0 (Grid.get g [| -1; -1 |]);
  Alcotest.(check (float 0.0)) "interior intact" 1.0 (Grid.get g [| 1; 1 |])

let test_halo_periodic () =
  let g = Grid.create ~halo:[| 1 |] ~dims:[| 4 |] () in
  Grid.fill g ~f:(fun i -> float_of_int i.(0));
  Grid.halo_periodic g;
  Alcotest.(check (float 0.0)) "left wraps" 3.0 (Grid.get g [| -1 |]);
  Alcotest.(check (float 0.0)) "right wraps" 0.0 (Grid.get g [| 4 |]);
  Alcotest.check_raises "halo too wide"
    (Invalid_argument "Grid.halo_periodic: halo wider than interior")
    (fun () ->
      let bad = Grid.create ~halo:[| 3 |] ~dims:[| 2 |] () in
      Grid.halo_periodic bad)

let test_copy_across_layouts () =
  let a = Grid.create ~halo:[| 1; 1; 1 |] ~dims:[| 4; 4; 4 |] () in
  Grid.fill a ~f:(fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2)));
  let b =
    Grid.create ~halo:[| 1; 1; 1 |] ~layout:(Grid.Folded [| 1; 2; 4 |])
      ~dims:[| 4; 4; 4 |] ()
  in
  Grid.copy_interior ~src:a ~dst:b;
  Alcotest.(check (float 0.0)) "identical" 0.0 (Grid.max_abs_diff a b)

let test_norm () =
  let g = Grid.create ~dims:[| 2; 2 |] () in
  Grid.fill g ~f:(fun _ -> 3.0);
  Alcotest.(check (float 1e-12)) "l2" 6.0 (Grid.l2_norm g)

let test_addresses_disjoint () =
  let space = Grid.fresh_space () in
  let a = Grid.create ~space ~dims:[| 8; 8 |] () in
  let b = Grid.create ~space ~dims:[| 8; 8 |] () in
  let c = Grid.create ~space ~dims:[| 8; 8 |] () in
  let a_end = Grid.base_address a + Grid.footprint_bytes a in
  let b_end = Grid.base_address b + Grid.footprint_bytes b in
  Alcotest.(check bool) "a/b disjoint" true (Grid.base_address b >= a_end);
  Alcotest.(check bool) "b/c disjoint" true (Grid.base_address c >= b_end);
  Alcotest.(check int) "line aligned" 0 (Grid.base_address b mod 64);
  (* Consecutive allocations are staggered across cache sets (YASK-style
     anti-aliasing padding). *)
  Alcotest.(check bool) "staggered sets" true
    (Grid.base_address a mod 4096 <> Grid.base_address b mod 4096)

let test_accessors () =
  let g =
    Grid.create ~halo:[| 1; 2 |] ~layout:(Grid.Folded [| 2; 2 |])
      ~dims:[| 4; 6 |] ()
  in
  Alcotest.(check int) "rank" 2 (Grid.rank g);
  Alcotest.(check (array int)) "dims" [| 4; 6 |] (Grid.dims g);
  Alcotest.(check (array int)) "halo" [| 1; 2 |] (Grid.halo g);
  Alcotest.(check bool) "layout" true
    (match Grid.layout g with Grid.Folded [| 2; 2 |] -> true | _ -> false);
  Alcotest.(check int) "footprint" (8 * Grid.length g) (Grid.footprint_bytes g);
  Grid.fill_all g 3.5;
  Alcotest.(check (float 0.0)) "fill_all halo" 3.5 (Grid.get g [| -1; -2 |])

let test_flat_access () =
  let g = Grid.create ~dims:[| 4 |] () in
  let off = Grid.offset_of g [| 2 |] in
  Grid.set g [| 2 |] 9.0;
  Alcotest.(check (float 0.0)) "same as get" 9.0 (Grid.unsafe_get_flat g off)

let suite =
  [ Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "get/set roundtrip" `Quick test_get_set_roundtrip;
    qt offsets_bijective;
    Alcotest.test_case "fold alignment" `Quick test_fold_alignment;
    Alcotest.test_case "fill and iter" `Quick test_fill_and_iter;
    Alcotest.test_case "halo dirichlet" `Quick test_halo_dirichlet;
    Alcotest.test_case "halo periodic" `Quick test_halo_periodic;
    Alcotest.test_case "copy across layouts" `Quick test_copy_across_layouts;
    Alcotest.test_case "l2 norm" `Quick test_norm;
    Alcotest.test_case "addresses disjoint" `Quick test_addresses_disjoint;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "flat access" `Quick test_flat_access ]
