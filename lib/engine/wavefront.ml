module Grid = Yasksite_grid.Grid
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Lint = Yasksite_lint.Lint
module Schedule_lint = Yasksite_lint.Schedule_lint

let steps ?backend ?plan ?trace ?sanitize ?(check = true)
    ?(config = Config.default) ?vec_unit (spec : Spec.t) ~a ~b ~steps =
  let dims = Grid.dims a in
  let info = Analysis.of_spec spec in
  (* Precondition failures surface as YS4xx diagnostics through
     [Lint.Gate_error]; [check:false] forces the schedule through so the
     sanitizer can demonstrate the violation dynamically. *)
  if check then begin
    let ds =
      Schedule_lint.wavefront_rules info ~dims config
      @ Schedule_lint.grids info config ~inputs:[| a |] ~output:b
      @ Schedule_lint.grids info config ~inputs:[| b |] ~output:a
    in
    Lint.gate ~context:"Wavefront.steps" (Schedule_lint.dedup ds)
  end;
  let shift = Schedule_lint.effective_stagger info config in
  let n0 = dims.(0) in
  let grids = [| a; b |] in
  let backend =
    match backend with Some bk -> bk | None -> Sweep.default_backend ()
  in
  (* Lower once; a ping-pong pass only ever sees two (src, dst) pairs,
     so the two bounds are built lazily and reused for every plane. *)
  let plan = lazy (match plan with Some p -> p | None -> Lower.lower spec) in
  let bound_ab =
    lazy (Lower.bind (Lazy.force plan) ~inputs:[| a |] ~output:b)
  and bound_ba =
    lazy (Lower.bind (Lazy.force plan) ~inputs:[| b |] ~output:a)
  in
  (* Certified fast path: a ping-pong pass alternates (a->b) and (b->a)
     tuples, so both directions must hold a certificate before any
     per-point shadow checks may be skipped. [check] is required — the
     certificate only proves the plan's accesses safe; aliasing, halo
     and fold legality come from the YS4xx gate above. *)
  let certified =
    match sanitize with
    | Some _ when check && Cert.enabled () ->
        let p = Lazy.force plan in
        let hit =
          Cert.mem (Cert.key ~plan:p ~inputs:[| a |] ~output:b ~config)
          && Cert.mem (Cert.key ~plan:p ~inputs:[| b |] ~output:a ~config)
        in
        if hit then Cert.record_fast_path ();
        hit
    | _ -> false
  in
  let stats = ref Sweep.zero_stats in
  let total = ref 0 in
  (* The sanitizer's view: the state in [a] is whatever version it
     currently holds (so repeated wavefront calls compose); step [abs_t]
     reads version [base + abs_t] and produces [base + abs_t + 1]. *)
  let base_version =
    match sanitize with
    | None -> 0
    | Some san ->
        Sanitizer.register san a;
        Sanitizer.register san b;
        Sanitizer.check_fold ~fold:config.Config.fold a;
        Sanitizer.check_fold ~fold:config.Config.fold b;
        Sanitizer.grid_version san a
  in
  (* Update plane [z] of timestep [t] -> [t+1] (absolute step index
     [base + t]), ping-ponging between the two grids. [front] is the
     process-unique id of the current front iteration, tagging writes so
     later steps of the same front can detect order dependences (an
     under-staggered schedule reading a plane an earlier step of this
     very front produced). *)
  let update_plane ~abs_t ~front z =
    let src = grids.(abs_t mod 2) and dst = grids.((abs_t + 1) mod 2) in
    let plo = Array.make (Array.length dims) 0 and phi = Array.copy dims in
    plo.(0) <- z;
    phi.(0) <- z + 1;
    let sanitize =
      Option.bind sanitize (fun san ->
          let pass =
            Sanitizer.begin_wavefront_step san ~src ~dst
              ~read_version:(base_version + abs_t) ~front
          in
          if certified then begin
            (* Skip per-point checks; bulk-commit this plane's shadow
               state so later steps still see exact versions/fronts. *)
            Sanitizer.commit_pass pass ~lo:plo ~hi:phi;
            None
          end
          else Some (Sanitizer.slice pass 0))
    in
    let bound = Lazy.force (if abs_t mod 2 = 0 then bound_ab else bound_ba) in
    let s =
      Sweep.run_region ~backend ~bound ?trace ?sanitize ~check ~config
        ?vec_unit spec ~inputs:[| src |] ~output:dst ~lo:plo ~hi:phi
    in
    stats := Sweep.add_stats !stats s
  in
  while !total < steps do
    let depth = min config.Config.wavefront (steps - !total) in
    for front = 0 to n0 - 1 + ((depth - 1) * shift) do
      let fid =
        match sanitize with Some san -> Sanitizer.fresh_front san | None -> 0
      in
      for t = 0 to depth - 1 do
        let z = front - (t * shift) in
        if z >= 0 && z < n0 then update_plane ~abs_t:(!total + t) ~front:fid z
      done
    done;
    total := !total + depth
  done;
  (match sanitize with
  | Some san ->
      Sanitizer.end_wavefront san
        ~final:grids.(steps mod 2)
        ~other:grids.((steps + 1) mod 2)
        ~final_version:(base_version + steps)
  | None -> ());
  (grids.(steps mod 2), !stats)
