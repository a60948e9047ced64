(* Topological program executor: one extended sweep per stage, one
   intermediate grid per non-input field. The halo plan decides how far
   into its halo each intermediate is computed, so consumers never see a
   stale ghost cell. *)

module Grid = Yasksite_grid.Grid
module Program = Yasksite_stencil.Program
module Config = Yasksite_ecm.Config
module Lint = Yasksite_lint.Lint

type stage_run = { stage : string; stats : Sweep.stats }

type result = {
  outputs : (string * Grid.t) list;
  stages : stage_run list;
}

let run ?pool ?backend ?(config = Config.default) ?space (p : Program.t)
    ~inputs =
  Lint.gate ~context:"Prog.run"
    (Lint.Program.program p @ Lint.Program.grids p ~inputs);
  let order =
    match Program.topo p with
    | Ok o -> o
    | Error _ -> invalid_arg "Prog.run: cyclic program"
  in
  let hp = Program.halo_plan p in
  let dims =
    match inputs with
    | (_, g) :: _ -> Grid.dims g
    | [] -> invalid_arg "Prog.run: a program needs at least one input grid"
  in
  let layout = Grid.layout_of_fold config.Config.fold in
  let env = Hashtbl.create 16 in
  List.iter (fun (name, g) -> Hashtbl.replace env name g) inputs;
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some g -> g
    | None -> invalid_arg (Printf.sprintf "Prog.run: unbound field %S" name)
  in
  let runs =
    List.map
      (fun sname ->
        let s =
          match Program.find_stage p sname with
          | Some s -> s
          | None -> assert false (* topo only yields stage names *)
        in
        let ext = List.assoc sname hp.Program.stage_ext in
        (* halo = ext: the extended sweep writes the whole allocation
           ([-ext, dims+ext)), and every consumer reads at most ext cells
           out, so no ghost cell is ever read unwritten. *)
        let output = Grid.create ?space ~halo:ext ~layout ~dims () in
        let spec = Program.stage_spec p s in
        let grids = Array.map lookup s.Program.reads in
        let stats =
          Sweep.run ?pool ?backend ~config ~extend:ext spec ~inputs:grids
            ~output
        in
        Hashtbl.replace env sname output;
        { stage = sname; stats })
      order
  in
  let outputs =
    Array.to_list (Array.map (fun o -> (o, lookup o)) p.Program.outputs)
  in
  { outputs; stages = runs }
