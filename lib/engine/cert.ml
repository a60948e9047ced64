(* Safety-certificate store: the bridge between the static plan
   verifier (Lint.Plan_lint, YS5xx) and the engine's execution paths.

   A certificate records that one (plan × layout × halo × blocking)
   tuple passed the full certification pipeline — the YS5xx abstract
   interpretation plus the YS511 traced-traffic cross-validation (see
   Certify). Keys are content-addressed off the plan's existing
   fingerprint plus the grid signatures (layout and halo — NOT the
   extents: the bounds proof is |offset| <= halo per dimension, which
   is extent-independent, so one certificate covers every problem
   size) and the config's block/fold. Sweep and Wavefront consult the
   store when a sanitized, gate-checked run starts: a hit selects the
   unchecked fast path (per-point shadow checks skipped, shadow state
   bulk-committed); a miss keeps today's fully checked path.

   The table is process-local. A certificate re-derives in a fraction
   of a millisecond, less than the persistent store takes to write
   one, so none is kept on disk. *)

module Grid = Yasksite_grid.Grid
module Plan = Yasksite_stencil.Plan
module Config = Yasksite_ecm.Config

type entry = {
  key : string;
  fingerprint : string;  (* the certified plan's content digest *)
  loads_per_point : int;  (* certified traffic: reads per update *)
}

let dims_str a =
  String.concat "x" (Array.to_list (Array.map string_of_int a))

let grid_sig g =
  let layout =
    match Grid.layout g with
    | Grid.Linear -> "lin"
    | Grid.Folded f -> "fold" ^ dims_str f
  in
  Printf.sprintf "%s,h%s" layout (dims_str (Grid.halo g))

let key ~(plan : Plan.t) ~inputs ~output ~(config : Config.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b plan.Plan.fingerprint;
  Array.iter
    (fun g ->
      Buffer.add_string b "|i:";
      Buffer.add_string b (grid_sig g))
    inputs;
  Buffer.add_string b "|o:";
  Buffer.add_string b (grid_sig output);
  Buffer.add_string b
    (match config.Config.block with
    | None -> "|b:_"
    | Some bl -> "|b:" ^ dims_str bl);
  Buffer.add_string b
    (match config.Config.fold with
    | None -> "|f:_"
    | Some f -> "|f:" ^ dims_str f);
  Digest.to_hex (Digest.string (Buffer.contents b))

let store : (string, entry) Hashtbl.t = Hashtbl.create 32

let mutex = Mutex.create ()

let fast_hits = Atomic.make 0

let lookup k = Mutex.protect mutex (fun () -> Hashtbl.find_opt store k)

let mem k = lookup k <> None

let insert e = Mutex.protect mutex (fun () -> Hashtbl.replace store e.key e)

let size () = Mutex.protect mutex (fun () -> Hashtbl.length store)

let clear () =
  Mutex.protect mutex (fun () -> Hashtbl.reset store);
  Atomic.set fast_hits 0

let record_fast_path () = Atomic.incr fast_hits

let fast_path_hits () = Atomic.get fast_hits
