module Cache_level = Yasksite_arch.Cache_level

(* Set [s] is [ways.(s * assoc)] .. [ways.(s * assoc + assoc - 1)], most
   recently used first. An entry is [line lsl 1 lor dirty] and -1 is an
   invalid way; the valid entries of a set always form a prefix of it. *)
type t = { n_sets : int; assoc : int; ways : int array }

let create (spec : Cache_level.t) ~effective_size =
  let set_bytes = spec.assoc * spec.line_bytes in
  let n_sets = max 1 (effective_size / set_bytes) in
  { n_sets; assoc = spec.assoc; ways = Array.make (n_sets * spec.assoc) (-1) }

(* First entry of [line]'s set. *)
let base t line = line mod t.n_sets * t.assoc

(* Index of [line]'s entry in [ways.(i)] .. [ways.(stop - 1)], or -1.
   Top-level with int-annotated arguments: a local closure would allocate
   on every call, and an unannotated scan compiles to polymorphic
   compare. An invalid entry (-1) never matches, as lines are
   non-negative. *)
let rec find (ways : int array) (line : int) (i : int) (stop : int) =
  if i = stop then -1
  else if ways.(i) asr 1 = line then i
  else find ways line (i + 1) stop

(* Write [e] at the front of the set starting at [b], shifting the
   entries [b] .. [i - 1] one way back over the entry at [i]. *)
let to_front (ways : int array) (b : int) (i : int) (e : int) =
  for j = i downto b + 1 do
    ways.(j) <- ways.(j - 1)
  done;
  ways.(b) <- e

let probe t ~line ~dirty =
  let ways = t.ways and b = base t line in
  let d = Bool.to_int dirty in
  let e = ways.(b) in
  (* A hit on the most recent line leaves the order as it is. *)
  if e asr 1 = line then begin
    ways.(b) <- e lor d;
    true
  end
  else begin
    let i = find ways line (b + 1) (b + t.assoc) in
    if i < 0 then false
    else begin
      to_front ways b i (ways.(i) lor d);
      true
    end
  end

let is_present t ~line =
  let b = base t line in
  find t.ways line b (b + t.assoc) >= 0

(* Move the entries from way [i] on one way back, [carry] taking way
   [i], until the entry of [line] is overwritten. The result is the
   entry that fell out: [line]'s, or the set's last if [line] is absent.
   One pass does the search and the shift of an insert: on clx/8's
   heat-3d stream (2-vCPU KVM host) it took about 10% less time per
   access than a probe followed by a shift from the last way. *)
let rec push_back (ways : int array) (line : int) (i : int) (stop : int)
    (carry : int) =
  if i = stop then carry
  else begin
    let e = ways.(i) in
    ways.(i) <- carry;
    if e asr 1 = line then e else push_back ways line (i + 1) stop e
  end

let insert t ~line ~dirty =
  let ways = t.ways and b = base t line in
  let d = Bool.to_int dirty in
  let e = ways.(b) in
  if e asr 1 = line then begin
    ways.(b) <- e lor d;
    -1
  end
  else begin
    let out = push_back ways line (b + 1) (b + t.assoc) e in
    if out asr 1 = line then begin
      ways.(b) <- out lor d;
      -1
    end
    else begin
      (* [out] is the LRU line of a full set, else -1. *)
      ways.(b) <- (line lsl 1) lor d;
      out
    end
  end

let extract t ~line =
  let ways = t.ways and b = base t line in
  let last = b + t.assoc - 1 in
  let i = find ways line b (last + 1) in
  if i < 0 then -1
  else begin
    let d = ways.(i) land 1 in
    for j = i to last - 1 do
      ways.(j) <- ways.(j + 1)
    done;
    ways.(last) <- -1;
    d
  end

let resident_lines t =
  Array.fold_left (fun n e -> if e >= 0 then n + 1 else n) 0 t.ways

let capacity_lines t = t.n_sets * t.assoc
