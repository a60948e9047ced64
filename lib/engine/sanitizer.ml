(* Shadow-memory sweep sanitizer: the dynamic cross-check of the YS4xx
   schedule-legality analyzer.

   Every registered grid gets a shadow table with, per cell, the value
   version (how many times the schedule has produced this cell), the
   pool-slice id of the last writer, and the id of the wavefront front
   that wrote it. A sweep pass declares, up front, which version each
   input grid is expected to hold and which version it produces; every
   access the engine executes is then checked against that contract:

   - a second write of the same version to one cell is an overlapping
     write (YS450) — two slices, or a revisiting schedule;
   - a read that sees the version currently being produced is a race:
     across slices a parallel read/write race, within one slice an
     in-place (aliased) read-after-write (YS451);
   - any other version mismatch is a stale read (YS452) — e.g. the
     plane skew of an under-staggered wavefront;
   - a read matching the expected version but of a cell written earlier
     in the *same* wavefront front is an order dependence the schedule
     does not license (YS451): stagger = radius is only accidentally
     correct under the sequential front order;
   - coordinates outside the allocation trap as YS453 and always raise
     (the check runs before the engine's unchecked access would);
   - after the pass, output cells not at the produced version were
     skipped by the partition (YS454);
   - no pass writes a halo cell (halos hold Dirichlet values, or
     periodic images refreshed between sweeps, never inside a
     wavefront), so in-allocation halo reads always pass;
   - a fold/layout mismatch between schedule and grids traps at sweep
     entry (YS456).

   Shadow state is plain int arrays: concurrent slice accesses are
   memory-safe under OCaml 5 without locks, and the races the schedule
   itself introduces are exactly what the checks detect. *)

module Grid = Yasksite_grid.Grid

type kind =
  | Overlapping_write
  | Racing_read
  | Stale_read
  | Out_of_bounds
  | Unwritten_cell
  | Fold_mismatch

let code_of_kind = function
  | Overlapping_write -> "YS450"
  | Racing_read -> "YS451"
  | Stale_read -> "YS452"
  | Out_of_bounds -> "YS453"
  | Unwritten_cell -> "YS454"
  | Fold_mismatch -> "YS456"

type trap = {
  kind : kind;
  grid_base : int;
  coord : int array;
  detail : string;
}

let describe_trap t =
  Printf.sprintf "%s at grid@%d[%s]: %s" (code_of_kind t.kind) t.grid_base
    (String.concat "," (Array.to_list (Array.map string_of_int t.coord)))
    t.detail

exception Trap of trap

let () =
  Printexc.register_printer (function
    | Trap t -> Some ("Sanitizer.Trap: " ^ describe_trap t)
    | _ -> None)

type shadow = {
  sg : Grid.t;
  version : int array;
  writer : int array;
  front : int array;
  mutable gver : int;
}

type t = {
  registry : (int, shadow) Hashtbl.t;
  front_counter : int Atomic.t;
}

let create () =
  { registry = Hashtbl.create 8;
    front_counter = Atomic.make 0 }

(* Every trap stops the engine, before an out-of-bounds access touches
   memory outside the allocation. *)
let record kind ~grid ~coord detail =
  raise
    (Trap
       { kind; grid_base = Grid.base_address grid; coord = Array.copy coord;
         detail })

let register t g =
  let base = Grid.base_address g in
  if not (Hashtbl.mem t.registry base) then begin
    let len = Grid.length g in
    Hashtbl.replace t.registry base
      { sg = g;
        version = Array.make len 0;
        writer = Array.make len (-1);
        front = Array.make len (-1);
        gver = 0 }
  end

let find t g =
  match Hashtbl.find_opt t.registry (Grid.base_address g) with
  | Some s -> s
  | None ->
      register t g;
      Hashtbl.find t.registry (Grid.base_address g)

let grid_version t g = (find t g).gver

let fresh_front t = Atomic.fetch_and_add t.front_counter 1

(* ------------------------------------------------------------------ *)
(* Passes *)

type pass = {
  t : t;
  out_shadow : shadow;
  write_version : int;
  expected : (int * shadow * int) list; (* (base, shadow, version) *)
  front_id : int; (* -1 outside a wavefront *)
}

type slice = { pass : pass; id : int }

let begin_sweep t ~inputs ~output =
  Array.iter (fun g -> register t g) inputs;
  register t output;
  let out = find t output in
  { t;
    out_shadow = out;
    write_version = out.gver + 1;
    expected =
      Array.to_list
        (Array.map
           (fun g ->
             let s = find t g in
             (Grid.base_address g, s, s.gver))
           inputs);
    front_id = -1 }

let begin_wavefront_step t ~src ~dst ~read_version ~front =
  register t src;
  register t dst;
  { t;
    out_shadow = find t dst;
    write_version = read_version + 1;
    expected = [ (Grid.base_address src, find t src, read_version) ];
    front_id = front }

let slice pass id = { pass; id }

let check_fold ~fold g =
  match fold with
  | None -> ()
  | Some f ->
      let ok =
        match Grid.layout g with
        | Grid.Folded lf -> lf = f
        | Grid.Linear -> Array.for_all (fun x -> x = 1) f
      in
      if not ok then
        record Fold_mismatch ~grid:g ~coord:[||]
          (Printf.sprintf
             "schedule folds %s but the grid is laid out %s"
             (String.concat "x" (Array.to_list (Array.map string_of_int f)))
             (match Grid.layout g with
             | Grid.Linear -> "linear"
             | Grid.Folded lf ->
                 String.concat "x"
                   (Array.to_list (Array.map string_of_int lf))))

(* Classify coordinates: 0 = interior, 1 = halo, 2 = out of bounds. *)
let classify ~dims ~halo coord =
  let rank = Array.length dims in
  let cls = ref 0 in
  for d = 0 to rank - 1 do
    let c = coord.(d) in
    if c < -halo.(d) || c >= dims.(d) + halo.(d) then cls := 2
    else if (c < 0 || c >= dims.(d)) && !cls < 2 then cls := 1
  done;
  !cls

let reader sl g =
  let pass = sl.pass in
  let base = Grid.base_address g in
  let s, expect =
    match
      List.find_opt (fun (b, _, _) -> b = base) pass.expected
    with
    | Some (_, s, v) -> (s, v)
    | None ->
        let s = find pass.t g in
        (s, s.gver)
  in
  let dims = Grid.dims g and halo = Grid.halo g in
  fun coord ->
    match classify ~dims ~halo coord with
    | 2 ->
        record Out_of_bounds ~grid:g ~coord
          "read outside the allocation (halo too thin for the stencil \
           radius?)"
    | 1 -> ()
    | _ ->
        let off = Grid.offset_of g coord in
        let v = s.version.(off) in
        if v = expect then begin
          if pass.front_id >= 0 && s.front.(off) = pass.front_id then
            record Racing_read ~grid:g ~coord
              (Printf.sprintf
                 "cell was written by an earlier step of the same \
                  wavefront front (stagger too small: order dependence)")
        end
        else if v = pass.write_version && s == pass.out_shadow then begin
          if s.writer.(off) <> sl.id then
            record Racing_read ~grid:g ~coord
              (Printf.sprintf
                 "slice %d read a cell slice %d is writing this pass" sl.id
                 s.writer.(off))
          else
            record Stale_read ~grid:g ~coord
              "in-place read of a cell this sweep already updated (aliased \
               input/output)"
        end
        else
          record Stale_read ~grid:g ~coord
            (Printf.sprintf "expected version %d, found version %d" expect v)

let writer sl =
  let pass = sl.pass in
  let s = pass.out_shadow in
  let g = s.sg in
  let dims = Grid.dims g in
  let interior coord =
    let ok = ref true in
    Array.iteri
      (fun d c -> if c < 0 || c >= dims.(d) then ok := false)
      coord;
    !ok
  in
  fun coord ->
    if not (interior coord) then
      record Out_of_bounds ~grid:g ~coord
        "write outside the output interior"
    else begin
      let off = Grid.offset_of g coord in
      if s.version.(off) = pass.write_version then
        record Overlapping_write ~grid:g ~coord
          (Printf.sprintf
             "cell already written this pass by slice %d (slice %d \
              rewrites it)"
             s.writer.(off) sl.id)
      else begin
        s.version.(off) <- pass.write_version;
        s.writer.(off) <- sl.id;
        s.front.(off) <- pass.front_id
      end
    end

(* Certified fast path: bulk-commit the shadow state a fully checked
   pass would have produced over the interior box [lo, hi). The engine
   calls this instead of per-point [writer] updates when a safety
   certificate proves the plan cannot trap, so version bookkeeping
   still composes: a later *checked* pass over the same grids sees
   exactly the versions and fronts a checked execution would have
   left. Writer ids collapse to slice 0 — overlap detection is the
   per-point check the certificate licensed skipping. *)
let commit_pass pass ~lo ~hi =
  let s = pass.out_shadow in
  let g = s.sg in
  let rank = Array.length lo in
  let coord = Array.make rank 0 in
  let rec go d =
    if d = rank then begin
      let off = Grid.offset_of g coord in
      s.version.(off) <- pass.write_version;
      s.writer.(off) <- 0;
      s.front.(off) <- pass.front_id
    end
    else
      for c = lo.(d) to hi.(d) - 1 do
        coord.(d) <- c;
        go (d + 1)
      done
  in
  go 0

let end_sweep pass =
  let s = pass.out_shadow in
  let missing = ref 0 in
  let first = ref None in
  Grid.iter_interior s.sg ~f:(fun coord ->
      let off = Grid.offset_of s.sg coord in
      if s.version.(off) <> pass.write_version then begin
        incr missing;
        if !first = None then first := Some (Array.copy coord)
      end);
  (match !first with
  | Some coord ->
      record Unwritten_cell ~grid:s.sg ~coord
        (Printf.sprintf
           "%d output cell%s left unwritten: the slices do not cover the \
            iteration space"
           !missing
           (if !missing = 1 then " was" else "s were"))
  | None -> ());
  s.gver <- pass.write_version

let end_wavefront t ~final ~other ~final_version =
  (find t final).gver <- final_version;
  if Grid.base_address other <> Grid.base_address final then
    (find t other).gver <- max 0 (final_version - 1)
