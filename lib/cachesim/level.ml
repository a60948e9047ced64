module Cache_level = Yasksite_arch.Cache_level

type t = {
  n_sets : int;
  assoc : int;
  (* Per-way state, indexed [set * assoc + way]. tag = -1 means invalid. *)
  tags : int array;
  dirty : Bytes.t;
  stamp : int array; (* LRU age stamps; higher = more recent *)
  mutable clock : int;
}

let create (spec : Cache_level.t) ~effective_size =
  let set_bytes = spec.assoc * spec.line_bytes in
  let n_sets = max 1 (effective_size / set_bytes) in
  { n_sets;
    assoc = spec.assoc;
    tags = Array.make (n_sets * spec.assoc) (-1);
    dirty = Bytes.make (n_sets * spec.assoc) '\000';
    stamp = Array.make (n_sets * spec.assoc) 0;
    clock = 0 }

let set_of t line = line mod t.n_sets

let find_way t line =
  let s = set_of t line in
  let base = s * t.assoc in
  let rec go w =
    if w = t.assoc then -1
    else if t.tags.(base + w) = line then base + w
    else go (w + 1)
  in
  go 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let probe t ~line =
  let i = find_way t line in
  if i < 0 then false
  else begin
    t.stamp.(i) <- tick t;
    true
  end

let is_present t ~line = find_way t line >= 0

let mark_dirty t ~line =
  let i = find_way t line in
  if i >= 0 then Bytes.set t.dirty i '\001'

let insert t ~line ~dirty =
  let i = find_way t line in
  if i >= 0 then begin
    t.stamp.(i) <- tick t;
    if dirty then Bytes.set t.dirty i '\001';
    None
  end
  else begin
    let s = set_of t line in
    let base = s * t.assoc in
    (* Pick an invalid way, else the LRU way. *)
    let victim = ref (base) in
    let found_invalid = ref false in
    for w = 0 to t.assoc - 1 do
      let i = base + w in
      if (not !found_invalid) && t.tags.(i) = -1 then begin
        victim := i;
        found_invalid := true
      end
      else if (not !found_invalid) && t.stamp.(i) < t.stamp.(!victim) then
        victim := i
    done;
    let i = !victim in
    let evicted =
      if t.tags.(i) = -1 then None
      else Some (t.tags.(i), Bytes.get t.dirty i = '\001')
    in
    t.tags.(i) <- line;
    Bytes.set t.dirty i (if dirty then '\001' else '\000');
    t.stamp.(i) <- tick t;
    evicted
  end

let extract t ~line =
  let i = find_way t line in
  if i < 0 then None
  else begin
    let d = Bytes.get t.dirty i = '\001' in
    t.tags.(i) <- -1;
    Bytes.set t.dirty i '\000';
    t.stamp.(i) <- 0;
    Some d
  end

let resident_lines t =
  Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.tags

let capacity_lines t = t.n_sets * t.assoc
