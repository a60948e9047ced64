module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level

type counters = {
  accesses : int;
  loads : int;
  stores : int;
  hits : int array;
  misses : int array;
  writebacks : int array;
  mem_loads : int;
  mem_writebacks : int;
  nt_stores : int;
  nt_lines : int;
}

type t = {
  specs : Cache_level.t array;
  active_cores : int;
  mutable levels : Level.t array;
  line_bytes : int;
  n : int;
  mutable accesses : int;
  mutable loads : int;
  mutable stores : int;
  hits : int array;
  misses : int array;
  writebacks : int array;
  boundary : int array; (* line transfers across boundary k <-> k+1/mem *)
  mutable mem_loads : int;
  mutable mem_writebacks : int;
  mutable nt_stores : int;
  mutable nt_bytes : int;
}

let effective_size (spec : Cache_level.t) ~active_cores =
  spec.size_bytes / min active_cores spec.shared_by

let build_levels specs ~active_cores =
  Array.map
    (fun spec ->
      Level.create spec ~effective_size:(effective_size spec ~active_cores))
    specs

let create ?(active_cores = 1) (m : Machine.t) =
  if active_cores <= 0 then
    invalid_arg "Hierarchy.create: active_cores must be positive";
  let specs = m.caches in
  let n = Array.length specs in
  { specs;
    active_cores;
    levels = build_levels specs ~active_cores;
    line_bytes = Machine.line_bytes m;
    n;
    accesses = 0;
    loads = 0;
    stores = 0;
    hits = Array.make n 0;
    misses = Array.make n 0;
    writebacks = Array.make n 0;
    boundary = Array.make n 0;
    mem_loads = 0;
    mem_writebacks = 0;
    nt_stores = 0;
    nt_bytes = 0 }

(* Handle a line evicted from level [k], cascading outwards. *)
let rec evicted_from t k line dirty =
  if k = t.n - 1 then begin
    (* Last level: dirty lines go to memory, clean lines vanish. *)
    if dirty then begin
      t.writebacks.(k) <- t.writebacks.(k) + 1;
      t.boundary.(k) <- t.boundary.(k) + 1;
      t.mem_writebacks <- t.mem_writebacks + 1
    end
  end
  else begin
    let next = k + 1 in
    match t.specs.(next).fill with
    | Cache_level.Victim ->
        (* Victim caches absorb every eviction, clean or dirty. *)
        t.boundary.(k) <- t.boundary.(k) + 1;
        if dirty then t.writebacks.(k) <- t.writebacks.(k) + 1;
        (match Level.insert t.levels.(next) ~line ~dirty with
        | None -> ()
        | Some (el, ed) -> evicted_from t next el ed)
    | Cache_level.Inclusive ->
        if dirty then begin
          (* Write-back: the line is normally still present outside. *)
          t.boundary.(k) <- t.boundary.(k) + 1;
          t.writebacks.(k) <- t.writebacks.(k) + 1;
          match Level.insert t.levels.(next) ~line ~dirty:true with
          | None -> ()
          | Some (el, ed) -> evicted_from t next el ed
        end
  end

let access t ~addr ~is_write =
  t.accesses <- t.accesses + 1;
  if is_write then t.stores <- t.stores + 1 else t.loads <- t.loads + 1;
  let line = addr / t.line_bytes in
  if Level.probe t.levels.(0) ~line then begin
    t.hits.(0) <- t.hits.(0) + 1;
    if is_write then Level.mark_dirty t.levels.(0) ~line
  end
  else begin
    t.misses.(0) <- t.misses.(0) + 1;
    (* Find the source of the line: first outer level holding it, else
       memory ([source = t.n]). [carried] is the dirty bit travelling with
       the line when a victim cache surrenders it. *)
    let rec locate k =
      if k = t.n then (t.n, false)
      else begin
        match t.specs.(k).fill with
        | Cache_level.Victim ->
            (match Level.extract t.levels.(k) ~line with
            | Some d ->
                t.hits.(k) <- t.hits.(k) + 1;
                (k, d)
            | None ->
                t.misses.(k) <- t.misses.(k) + 1;
                locate (k + 1))
        | Cache_level.Inclusive ->
            if Level.probe t.levels.(k) ~line then begin
              t.hits.(k) <- t.hits.(k) + 1;
              (k, false)
            end
            else begin
              t.misses.(k) <- t.misses.(k) + 1;
              locate (k + 1)
            end
      end
    in
    let source, carried = locate 1 in
    if source = t.n then t.mem_loads <- t.mem_loads + 1;
    (* The line crosses every boundary between its source and the core. *)
    for k = 0 to source - 1 do
      t.boundary.(k) <- t.boundary.(k) + 1
    done;
    (* Fill inner levels on the way in; victim levels are bypassed. *)
    for k = source - 1 downto 0 do
      let fill_here = k = 0 || t.specs.(k).fill = Cache_level.Inclusive in
      if fill_here then begin
        let dirty = k = 0 && carried in
        match Level.insert t.levels.(k) ~line ~dirty with
        | None -> ()
        | Some (el, ed) -> evicted_from t k el ed
      end
    done;
    if is_write then Level.mark_dirty t.levels.(0) ~line
  end

let read t ~addr = access t ~addr ~is_write:false

let write t ~addr = access t ~addr ~is_write:true

(* Streaming store: no allocation, no fetch; data flows core -> memory.
   We charge the memory boundary one line per line's worth of bytes
   (write-combining buffers merge consecutive element stores). Following
   Intel MOVNT semantics, resident copies of the line are invalidated
   (after writing back a dirty copy), so repeated streaming passes really
   do stream. *)
let write_nt t ~addr =
  t.accesses <- t.accesses + 1;
  t.stores <- t.stores + 1;
  t.nt_stores <- t.nt_stores + 1;
  let line = addr / t.line_bytes in
  for k = 0 to t.n - 1 do
    match Level.extract t.levels.(k) ~line with
    | Some true ->
        (* Dirty victim: its data reaches memory before the NT write. *)
        t.boundary.(t.n - 1) <- t.boundary.(t.n - 1) + 1;
        t.mem_writebacks <- t.mem_writebacks + 1
    | Some false | None -> ()
  done;
  t.nt_bytes <- t.nt_bytes + 8;
  if t.nt_bytes >= t.line_bytes then begin
    t.nt_bytes <- t.nt_bytes - t.line_bytes;
    t.boundary.(t.n - 1) <- t.boundary.(t.n - 1) + 1;
    t.mem_writebacks <- t.mem_writebacks + 1
  end

let counters t =
  { accesses = t.accesses;
    loads = t.loads;
    stores = t.stores;
    hits = Array.copy t.hits;
    misses = Array.copy t.misses;
    writebacks = Array.copy t.writebacks;
    mem_loads = t.mem_loads;
    mem_writebacks = t.mem_writebacks;
    nt_stores = t.nt_stores;
    nt_lines = t.nt_stores * 8 / t.line_bytes }

let reset_counters t =
  t.accesses <- 0;
  t.loads <- 0;
  t.stores <- 0;
  Array.fill t.hits 0 t.n 0;
  Array.fill t.misses 0 t.n 0;
  Array.fill t.writebacks 0 t.n 0;
  Array.fill t.boundary 0 t.n 0;
  t.mem_loads <- 0;
  t.mem_writebacks <- 0;
  t.nt_stores <- 0;
  t.nt_bytes <- 0

let traffic_lines t ~level =
  if level < 0 || level >= t.n then invalid_arg "Hierarchy.traffic_lines";
  t.boundary.(level)

let traffic_bytes t ~level = traffic_lines t ~level * t.line_bytes

let line_bytes t = t.line_bytes

let levels t = t.n

let flush t =
  t.levels <- build_levels t.specs ~active_cores:t.active_cores;
  reset_counters t
