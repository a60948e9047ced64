module Grid = Yasksite_grid.Grid
module Hierarchy = Yasksite_cachesim.Hierarchy
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Expr = Yasksite_stencil.Expr
module Config = Yasksite_ecm.Config
module Pool = Yasksite_util.Pool
module Lint = Yasksite_lint.Lint
module Schedule_lint = Yasksite_lint.Schedule_lint
module D = Yasksite_lint.Diagnostic

type stats = { points : int; vec_units : int; rows : int; blocks : int }

let zero_stats = { points = 0; vec_units = 0; rows = 0; blocks = 0 }

let add_stats a b =
  { points = a.points + b.points;
    vec_units = a.vec_units + b.vec_units;
    rows = a.rows + b.rows;
    blocks = a.blocks + b.blocks }

(* ---- execution backends ---- *)

type backend = Plan_backend | Codegen_backend

let backend_override = ref None

let set_default_backend b = backend_override := Some b

let clear_default_backend () = backend_override := None

let legal_backends =
  [ ("plan", Plan_backend); ("codegen", Codegen_backend) ]

let backend_of_string s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) legal_backends with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %S: legal backends are %s" s
           (String.concat ", "
              (List.map (fun (n, _) -> Printf.sprintf "%S" n) legal_backends)))

(* Precedence: a [set_default_backend] override (the CLI applies
   --backend through it) beats the YASKSITE_BACKEND environment
   variable, which beats the built-in plan default. An unrecognised
   environment value fails eagerly here — the first sweep (or the
   CLI's startup validation) reports the one-line error instead of a
   late, unhelpful failure mid-run. *)
let default_backend () =
  match !backend_override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt "YASKSITE_BACKEND" with
      | None | Some "" -> Plan_backend
      | Some s -> (
          match backend_of_string s with
          | Ok b -> b
          | Error msg -> invalid_arg ("Sweep: YASKSITE_BACKEND: " ^ msg)))

let backend_name = function
  | Plan_backend -> "plan"
  | Codegen_backend -> "codegen"

let ceil_div a b = (a + b - 1) / b

(* Work units of a box of given extents under a fold shape. *)
let units_of_box extents fold =
  let acc = ref 1 in
  Array.iteri (fun i e -> acc := !acc * ceil_div e fold.(i)) extents;
  !acc

let dims_str a =
  String.concat "x" (Array.to_list (Array.map string_of_int a))

(* Structural validation of an [?extend] argument — a programmer error,
   like a bad [vec_unit], not a schedule-legality finding. *)
let check_extend ~rank = function
  | None -> ()
  | Some e ->
      if Array.length e <> rank then invalid_arg "Sweep: extend rank";
      if Array.exists (fun x -> x < 0) e then
        invalid_arg "Sweep: negative extend"

let is_extended = function
  | None -> false
  | Some e -> Array.exists (fun x -> x > 0) e

(* Precondition failures surface as lint diagnostics through
   [Lint.Gate_error] (not bare [Invalid_argument]) so the CLI maps them
   to exit 1 consistently with every other gate. With [?extend] the
   legal space widens to [[-ext, dims+ext)] — the extension lives in
   the grids' halos (gated separately). *)
let check_region ~extend ~dims ~lo ~hi =
  let rank = Array.length dims in
  let ext i = match extend with Some e -> e.(i) | None -> 0 in
  let ds =
    if Array.length lo <> rank || Array.length hi <> rank then
      [ D.errorf ~code:"YS409"
          "region rank %d does not match the iteration space %s"
          (Array.length lo) (dims_str dims) ]
    else begin
      let bad = ref [] in
      Array.iteri
        (fun i d ->
          if lo.(i) < -ext i || hi.(i) > d + ext i || lo.(i) > hi.(i) then
            bad :=
              D.errorf ~code:"YS406"
                "region [%s..%s) leaves the %siteration space %s in \
                 dimension %d"
                (dims_str lo) (dims_str hi)
                (if is_extended extend then "extended " else "")
                (dims_str dims) i
              :: !bad)
        dims;
      List.rev !bad
    end
  in
  Lint.gate ~context:"Sweep.run_region" ds

(* All ranks route through the plan driver for addressing: row bases are
   set once per row ([Lower.set_row]) and each row block is one row call
   through the bound's precomputed last-dimension tables. The codegen
   backend only swaps that row call — tracing and sanitizing are issued
   by the driver before it, which is what keeps the two backends'
   traces and traps identical by construction. *)

let run_region ?backend ?bound ?trace ?sanitize ?(check = true)
    ?(config = Config.default) ?vec_unit ?extend spec ~inputs ~output ~lo ~hi =
  let dims = Grid.dims output in
  check_extend ~rank:(Array.length dims) extend;
  if check then begin
    let ds = ref [] in
    Array.iteri
      (fun i g ->
        if Grid.dims g <> dims then
          ds :=
            D.errorf ~code:"YS409" "input field %d is %s but the output is %s"
              i
              (dims_str (Grid.dims g))
              (dims_str dims)
            :: !ds)
      inputs;
    Lint.gate ~context:"Sweep.run_region" (List.rev !ds);
    check_region ~extend ~dims ~lo ~hi;
    (* An extended region reads and writes into the halos; the full
       grids gate proves they are wide enough before any unchecked
       table access. *)
    if is_extended extend then
      Lint.gate ~context:"Sweep.run_region"
        (Schedule_lint.grids ?extend (Analysis.of_spec spec) config ~inputs
           ~output)
  end;
  let rank = Array.length dims in
  let fold =
    match vec_unit with
    | Some u ->
        if Array.length u <> rank then invalid_arg "Sweep: vec_unit rank";
        u
    | None -> Config.fold_extents config ~rank
  in
  let block = Config.block_extents config ~dims in
  let nt = config.Config.streaming_stores in
  let backend = match backend with Some b -> b | None -> default_backend () in
  let bound =
    match bound with
    | Some b ->
        (* A bound's tables address the grids it was made for; any other
           grids would be read and written through them unchecked. *)
        if not (Lower.bound_to b ~inputs ~output) then
          invalid_arg "Sweep.run_region: bound was made for other grids";
        b
    | None -> Lower.bind (Lower.lower spec) ~inputs ~output
  in
  let drv = Lower.driver bound in
  let accesses = (Lower.plan_of bound).Plan.accesses in
  let nslots = Array.length accesses in
  (* The codegen backend resolves a compiled kernel for this plan's
     specialization (memoized; compiled and store-cached on first
     sight). [None] — unavailable toolchain, rejected or unsupported
     plan — falls back to the plan interpreter below, so the sweep
     never fails for codegen-specific reasons. *)
  let kern =
    match backend with
    | Codegen_backend ->
        Native.kern_for ~plan:(Lower.plan_of bound) ~inputs ~output
    | Plan_backend -> None
  in
  (* One row call evaluates and stores the row block: the compiled
     unit's own row loop, driven by the same bound storage and row bases
     as the interpreter's, or the interpreter's. *)
  let store_row =
    match kern with
    | Some k ->
        let rw = Lower.raw_of bound in
        let row = Lower.driver_row drv in
        fun xb xe ->
          k rw.Lower.r_slot_data rw.Lower.r_slot_tab rw.Lower.r_out_data
            rw.Lower.r_out_tab row (Lower.driver_out_row drv) xb xe
    | None -> Lower.store_row drv
  in
  (* Instrumented runs first issue, point by point, each point's shadow
     checks and then its traced reads (in access-table order) and its
     write, and only then make the row call. So both backends give the
     simulator one stream, each point's reads before its write, and an
     out-of-bounds trap fires before any point of the row is evaluated
     or written. Scratch coordinate arrays are safe to reuse: the
     sanitizer copies on record. *)
  let sanitize_point =
    match sanitize with
    | None -> None
    | Some sl ->
        let checkers =
          Array.map
            (fun (a : Expr.access) -> Sanitizer.reader sl inputs.(a.field))
            accesses
        in
        let write = Sanitizer.writer sl in
        let rc = Array.make rank 0 and wc = Array.make rank 0 in
        Some
          (fun (outer : int array) x ->
            for s = 0 to nslots - 1 do
              let off = accesses.(s).Expr.offsets in
              for i = 0 to rank - 2 do
                rc.(i) <- outer.(i) + off.(i)
              done;
              rc.(rank - 1) <- x + off.(rank - 1);
              checkers.(s) rc
            done;
            for i = 0 to rank - 2 do
              wc.(i) <- outer.(i)
            done;
            wc.(rank - 1) <- x;
            write wc)
  in
  let trace_point =
    match trace with
    | None -> None
    | Some h ->
        let store = if nt then Hierarchy.write_nt h else Hierarchy.write h in
        Some
          (fun x ->
            for s = 0 to nslots - 1 do
              Hierarchy.read h ~addr:(Lower.read_addr drv s x)
            done;
            store ~addr:(Lower.out_addr drv x))
  in
  let row_body =
    match (sanitize_point, trace_point) with
    | None, None -> fun (_ : int array) xb xe -> store_row xb xe
    | _ ->
        fun outer xb xe ->
          for x = xb to xe - 1 do
            (match sanitize_point with Some f -> f outer x | None -> ());
            match trace_point with Some f -> f x | None -> ()
          done;
          store_row xb xe
  in
  let points = ref 0 and vec_units = ref 0 and rows = ref 0 and blocks = ref 0 in
  (match rank with
  | 1 ->
      let outer = [||] in
      Lower.set_row drv outer;
      let bx = block.(0) in
      let xb = ref lo.(0) in
      while !xb < hi.(0) do
        let xe = min hi.(0) (!xb + bx) in
        incr blocks;
        incr rows;
        row_body outer !xb xe;
        points := !points + (xe - !xb);
        vec_units := !vec_units + units_of_box [| xe - !xb |] fold;
        xb := xe
      done
  | 2 ->
      (* Block x (dim 1), stream y (dim 0) inside each block. *)
      let outer = Array.make 1 0 in
      let bx = block.(1) in
      let xb = ref lo.(1) in
      while !xb < hi.(1) do
        let xe = min hi.(1) (!xb + bx) in
        incr blocks;
        for y = lo.(0) to hi.(0) - 1 do
          incr rows;
          outer.(0) <- y;
          Lower.set_row drv outer;
          row_body outer !xb xe
        done;
        let ny = hi.(0) - lo.(0) and nx = xe - !xb in
        points := !points + (ny * nx);
        vec_units := !vec_units + units_of_box [| ny; nx |] fold;
        xb := xe
      done
  | _ ->
      (* Block y and x (dims 1, 2), stream z (dim 0) inside each block
         column. *)
      let outer = Array.make 2 0 in
      let by = block.(1) and bx = block.(2) in
      let yb = ref lo.(1) in
      while !yb < hi.(1) do
        let ye = min hi.(1) (!yb + by) in
        let xb = ref lo.(2) in
        while !xb < hi.(2) do
          let xe = min hi.(2) (!xb + bx) in
          incr blocks;
          for z = lo.(0) to hi.(0) - 1 do
            outer.(0) <- z;
            for y = !yb to ye - 1 do
              incr rows;
              outer.(1) <- y;
              Lower.set_row drv outer;
              row_body outer !xb xe
            done
          done;
          let nz = hi.(0) - lo.(0) and ny = ye - !yb and nx = xe - !xb in
          points := !points + (nz * ny * nx);
          vec_units := !vec_units + units_of_box [| nz; ny; nx |] fold;
          xb := xe
        done;
        yb := ye
      done);
  { points = !points; vec_units = !vec_units; rows = !rows; blocks = !blocks }

(* Domain-parallel sweep. The interior is split along the blocked
   dimension (dim 0 for rank 1, dim 1 — x or y — otherwise) at block
   boundaries, so every slice is a whole number of block columns:
   the union of the slices' loop structures is exactly the sequential
   one, making the returned stats bit-identical to the single-region
   sweep and the written output regions disjoint. Unblocked configs
   have a single block column and run sequentially — spatial blocking
   is what creates the parallelism, exactly as it creates the
   per-thread partition on the modelled machine. *)
let run ?pool ?backend ?plan ?trace ?sanitize ?(check = true) ?config
    ?vec_unit ?extend spec ~inputs ~output =
  let cfg = match config with Some c -> c | None -> Config.default in
  check_extend ~rank:(Grid.rank output) extend;
  (* The sanitizer's shadow memory models the interior write set; an
     extended sweep deliberately writes into the halos, which the shadow
     pass would (correctly, for a plain sweep) trap. The combination is
     a caller error, not a schedule finding. *)
  if is_extended extend && sanitize <> None then
    invalid_arg "Sweep: sanitize is not supported on extended sweeps";
  (* The schedule-legality gate: halo sufficiency, aliasing, layout and
     extent agreement are decided *before* the sweep touches memory.
     [check:false] bypasses it (the sanitizer's adversarial mode). *)
  if check then
    Lint.gate ~context:"Sweep.run"
      (Schedule_lint.grids ?extend (Analysis.of_spec spec) cfg ~inputs ~output);
  let backend = match backend with Some b -> b | None -> default_backend () in
  (* A passed plan lets callers that sweep repeatedly lower once. *)
  let plan = match plan with Some p -> p | None -> Lower.lower spec in
  (* Certified fast path: a sanitized, gate-checked sweep whose
     (plan x layout x halo x blocking) tuple holds a safety certificate
     skips the per-point shadow checks — the certificate proves no
     access can escape and the partition covers by construction. The
     pass is still opened and bulk-committed so version bookkeeping
     composes with later checked passes. [check:false] (the
     adversarial mode) never takes the fast path. *)
  let certified =
    match sanitize with
    | Some _ when check && Cert.enabled () ->
        let hit = Cert.mem (Cert.key ~plan ~inputs ~output ~config:cfg) in
        if hit then Cert.record_fast_path ();
        hit
    | _ -> false
  in
  let pass =
    match sanitize with
    | None -> None
    | Some san ->
        Array.iter (fun g -> Sanitizer.register san g) inputs;
        Sanitizer.register san output;
        Sanitizer.check_fold ~fold:cfg.Config.fold output;
        Array.iter (Sanitizer.check_fold ~fold:cfg.Config.fold) inputs;
        Some (Sanitizer.begin_sweep san ~inputs ~output)
  in
  (* Bind once, to the grids the gate checked; the bound is immutable and
     shared by every pool slice (each slice allocates its own driver). *)
  let bound = Lower.bind plan ~inputs ~output in
  let slice_of s =
    if certified then None
    else Option.map (fun p -> Sanitizer.slice p s) pass
  in
  let dims = Grid.dims output in
  let rank = Array.length dims in
  let ext = match extend with Some e -> e | None -> Array.make rank 0 in
  let block = Config.block_extents cfg ~dims in
  let pd = if rank = 1 then 0 else 1 in
  let bsize = block.(pd) in
  let nblocks = ceil_div (dims.(pd) + (2 * ext.(pd))) bsize in
  (* A traced sweep runs on one domain: the hierarchy is a single
     core's sequential view, so its counts are the sequential sweep's. *)
  let nslices =
    match (pool, trace) with
    | Some p, None -> min (Pool.size p) nblocks
    | _ -> 1
  in
  let bounds s =
    (* Slice [s] owns block columns [nblocks*s/nslices,
       nblocks*(s+1)/nslices) along the partition dimension. Blocks
       start at the (possibly extended) low edge, exactly where the
       sequential sweep starts them, so the union of the slices' loop
       structures stays the sequential one. *)
    let b0 = nblocks * s / nslices and b1 = nblocks * (s + 1) / nslices in
    let lo = Array.map (fun x -> -x) ext
    and hi = Array.mapi (fun i d -> d + ext.(i)) dims in
    lo.(pd) <- -ext.(pd) + (b0 * bsize);
    hi.(pd) <- min (dims.(pd) + ext.(pd)) (-ext.(pd) + (b1 * bsize));
    (lo, hi)
  in
  let region s =
    let lo, hi = bounds s in
    run_region ~backend ~bound ?trace ?sanitize:(slice_of s) ~check:false
      ?config ?vec_unit ?extend spec ~inputs ~output ~lo ~hi
  in
  let stats =
    match pool with
    | Some pool when nslices >= 2 ->
        let out = Array.make nslices zero_stats in
        Pool.parallel_for ~chunk:1 pool ~n:nslices (fun s ->
            out.(s) <- region s);
        Array.fold_left add_stats zero_stats out
    | _ -> region 0
  in
  (match pass with
  | Some p ->
      if certified then
        Sanitizer.commit_pass p ~lo:(Array.map (fun _ -> 0) dims) ~hi:dims;
      Sanitizer.end_sweep p
  | None -> ());
  stats
