(** Textual machine-description files, so users can model their own CPU
    without writing OCaml (the role kerncraft's YAML machine files play
    for the ECM tool chain).

    Format: line-oriented [key = value] with [#] comments. Machine-level
    keys first, then one [\[cache\]] section per level, innermost first:

    {v
      # my-chip.machine
      name      = MyChip
      vendor    = intel          # intel | amd | generic
      freq_ghz  = 3.0
      cores     = 16
      dp_lanes  = 8
      fma_ports = 2
      add_ports = 2
      load_ports = 2
      store_ports = 1
      mem_bw_gbs = 120
      mem_latency_cycles = 200
      overlap   = serial         # serial | overlapping

      [cache]
      name = L1
      size_kib = 32
      assoc = 8
      bytes_per_cycle = 64
      latency_cycles = 4
      # optional: shared_by = 1, fill = inclusive | victim, line_bytes = 64
    v} *)

val parse : string -> (Machine.t, string) result
(** Parse a machine description from a string; errors carry the line
    number. *)

type raw = {
  machine_fields : (string * (string * int)) list;
      (** machine-level [(key, (value, line))] bindings in file order *)
  cache_fields : (string * (string * int)) list list;
      (** one binding list per [\[cache\]] section, innermost first *)
}

val parse_raw : string -> (raw, int * string) result
(** Parse only the key/value structure, without interpreting or
    validating any value ([parse] rejects inconsistent machines
    outright; the lint layer wants to inspect the raw bindings and
    report {e all} problems with their line numbers). Errors are
    [(line, message)]. *)

val load : string -> (Machine.t, string) result
(** Read and parse a file. *)

val render : Machine.t -> string
(** Render a machine back to the file format ([parse (render m)]
    reconstructs an equal machine). Used by tests only: the reference
    of the machine-file round-trip property. *)
