(* Shared infrastructure of the experiment harness. *)
open Yasksite
module Table = Yasksite_util.Table
module Chart = Yasksite_util.Chart
module Stats = Yasksite_util.Stats
module Clock = Yasksite_util.Clock
module Json = Yasksite_util.Json

(* The simulated testbed: the paper's two machines at 1/8 cache scale
   (grids are scaled alike, so all capacity-relative effects carry
   over; see DESIGN.md). *)
let clx = Machine.scaled ~factor:8 Machine.cascade_lake

let rome = Machine.scaled ~factor:8 Machine.rome

let header id title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s — %s\n" (String.uppercase_ascii id) title;
  Printf.printf "==================================================\n"

let dims_for (spec : Stencil.Spec.t) =
  (* Memory-bound working sets at simulation scale. *)
  match spec.Stencil.Spec.rank with
  | 1 -> [| 262144 |]
  | 2 -> [| 384; 384 |]
  | _ -> [| 64; 64; 64 |]

let pred_meas machine spec dims config =
  let info = Stencil.Analysis.of_spec spec in
  let p = Model.predict machine info ~dims ~config in
  let m = Engine.Measure.stencil_sweep machine spec ~dims ~config in
  (p, m)

let err ~predicted ~measured = Stats.rel_error ~predicted ~measured

let glups x = x /. 1e9

let mlups x = x /. 1e6

(* [f ()] and its wall-clock seconds on the library's monotonic clock. *)
let time f =
  let t0 = Clock.now Clock.system in
  let r = f () in
  (r, Clock.now Clock.system -. t0)

(* Write a machine-readable record in the one bench layout. *)
let write_json path v =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string_indented v ^ "\n"));
  Printf.printf "wrote %s\n" path

let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

(* Remove a scratch store root and everything under it. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()
