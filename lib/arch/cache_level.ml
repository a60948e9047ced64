type fill_policy = Inclusive | Victim

type t = {
  name : string;
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  shared_by : int;
  bytes_per_cycle : float;
  latency_cycles : float;
  fill : fill_policy;
}

let v ~name ~size_bytes ~assoc ?(line_bytes = 64) ?(shared_by = 1)
    ~bytes_per_cycle ~latency_cycles ?(fill = Inclusive) () =
  if size_bytes <= 0 then invalid_arg "Cache_level.v: size must be positive";
  if assoc <= 0 then invalid_arg "Cache_level.v: assoc must be positive";
  if line_bytes <= 0 then invalid_arg "Cache_level.v: line must be positive";
  if shared_by <= 0 then invalid_arg "Cache_level.v: shared_by must be positive";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache_level.v: size not divisible by assoc * line";
  if bytes_per_cycle <= 0.0 then
    invalid_arg "Cache_level.v: bandwidth must be positive";
  { name; size_bytes; assoc; line_bytes; shared_by; bytes_per_cycle;
    latency_cycles; fill }

let lines t = t.size_bytes / t.line_bytes

let scale ~factor t =
  if factor <= 0 then invalid_arg "Cache_level.scale: factor must be positive";
  let size_bytes = max (t.assoc * t.line_bytes) (t.size_bytes / factor) in
  (* Round to a set-aligned size. *)
  let unit = t.assoc * t.line_bytes in
  let size_bytes = size_bytes / unit * unit in
  { t with size_bytes }

let pp fmt t =
  Format.fprintf fmt "%s: %s, %d-way, %dB lines, shared by %d, %.0f B/cy, %s"
    t.name
    (Yasksite_util.Units.bytes t.size_bytes)
    t.assoc t.line_bytes t.shared_by t.bytes_per_cycle
    (match t.fill with Inclusive -> "inclusive" | Victim -> "victim")
