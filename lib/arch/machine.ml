type vendor = Intel | Amd | Generic

type overlap = Serial | Overlapping

type simd = {
  dp_lanes : int;
  fma_ports : int;
  add_ports : int;
  load_ports : int;
  store_ports : int;
}

type t = {
  name : string;
  vendor : vendor;
  freq_ghz : float;
  cores : int;
  simd : simd;
  caches : Cache_level.t array;
  mem_bw_chip_gbs : float;
  mem_latency_cycles : float;
  overlap : overlap;
}

let v ~name ~vendor ~freq_ghz ~cores ~simd ~caches ~mem_bw_chip_gbs
    ~mem_latency_cycles ~overlap =
  if caches = [] then invalid_arg "Machine.v: need at least one cache level";
  if freq_ghz <= 0.0 then invalid_arg "Machine.v: frequency must be positive";
  if cores <= 0 then invalid_arg "Machine.v: cores must be positive";
  if mem_bw_chip_gbs <= 0.0 then
    invalid_arg "Machine.v: memory bandwidth must be positive";
  let caches = Array.of_list caches in
  let line = caches.(0).Cache_level.line_bytes in
  Array.iteri
    (fun i (l : Cache_level.t) ->
      if l.line_bytes <> line then
        invalid_arg "Machine.v: non-uniform line size";
      if i > 0 && l.size_bytes < caches.(i - 1).size_bytes then
        invalid_arg "Machine.v: cache capacities must be non-decreasing")
    caches;
  { name; vendor; freq_ghz; cores; simd; caches; mem_bw_chip_gbs;
    mem_latency_cycles; overlap }

let kib n = n * 1024
let mib n = n * 1024 * 1024

let cascade_lake =
  v ~name:"CascadeLake-SP" ~vendor:Intel ~freq_ghz:2.5 ~cores:20
    ~simd:{ dp_lanes = 8; fma_ports = 2; add_ports = 2; load_ports = 2;
            store_ports = 1 }
    ~caches:
      [ Cache_level.v ~name:"L1" ~size_bytes:(kib 32) ~assoc:8
          ~bytes_per_cycle:64.0 ~latency_cycles:4.0 ();
        Cache_level.v ~name:"L2" ~size_bytes:(mib 1) ~assoc:16
          ~bytes_per_cycle:16.0 ~latency_cycles:14.0 ();
        Cache_level.v ~name:"L3" ~size_bytes:(27 * 1024 * 1024 + kib 512)
          ~assoc:11 ~shared_by:20 ~bytes_per_cycle:5.6 ~latency_cycles:50.0 () ]
    ~mem_bw_chip_gbs:105.0 ~mem_latency_cycles:200.0 ~overlap:Serial

let rome =
  v ~name:"Rome" ~vendor:Amd ~freq_ghz:2.25 ~cores:64
    ~simd:{ dp_lanes = 4; fma_ports = 2; add_ports = 2; load_ports = 2;
            store_ports = 1 }
    ~caches:
      [ Cache_level.v ~name:"L1" ~size_bytes:(kib 32) ~assoc:8
          ~bytes_per_cycle:32.0 ~latency_cycles:4.0 ();
        Cache_level.v ~name:"L2" ~size_bytes:(kib 512) ~assoc:8
          ~bytes_per_cycle:32.0 ~latency_cycles:12.0 ();
        Cache_level.v ~name:"L3" ~size_bytes:(mib 16) ~assoc:16 ~shared_by:4
          ~bytes_per_cycle:4.5 ~latency_cycles:40.0 ~fill:Cache_level.Victim
          () ]
    ~mem_bw_chip_gbs:140.0 ~mem_latency_cycles:220.0 ~overlap:Overlapping

let test_chip =
  v ~name:"TestChip" ~vendor:Generic ~freq_ghz:2.0 ~cores:4
    ~simd:{ dp_lanes = 4; fma_ports = 1; add_ports = 1; load_ports = 2;
            store_ports = 1 }
    ~caches:
      [ Cache_level.v ~name:"L1" ~size_bytes:(kib 4) ~assoc:4
          ~bytes_per_cycle:32.0 ~latency_cycles:4.0 ();
        Cache_level.v ~name:"L2" ~size_bytes:(kib 32) ~assoc:8
          ~bytes_per_cycle:16.0 ~latency_cycles:12.0 ();
        Cache_level.v ~name:"L3" ~size_bytes:(kib 256) ~assoc:8 ~shared_by:4
          ~bytes_per_cycle:8.0 ~latency_cycles:40.0 () ]
    ~mem_bw_chip_gbs:20.0 ~mem_latency_cycles:150.0 ~overlap:Serial

let scaled ?(factor = 8) t =
  { t with
    name = Printf.sprintf "%s/%d" t.name factor;
    caches = Array.map (Cache_level.scale ~factor) t.caches }

let line_bytes t = t.caches.(0).Cache_level.line_bytes

let cycles_per_second t = t.freq_ghz *. 1e9

let peak_flops_core t =
  let flops_per_cycle =
    float_of_int (t.simd.dp_lanes * t.simd.fma_ports * 2)
  in
  flops_per_cycle *. cycles_per_second t

let mem_bytes_per_cycle_chip t = t.mem_bw_chip_gbs *. 1e9 /. cycles_per_second t

let last_level t = t.caches.(Array.length t.caches - 1)

let describe t =
  let open Yasksite_util in
  let tbl =
    Table.create ~title:(Printf.sprintf "Machine: %s" t.name)
      ~columns:[ ("property", Table.Left); ("value", Table.Left) ]
      ()
  in
  let vendor =
    match t.vendor with Intel -> "Intel" | Amd -> "AMD" | Generic -> "generic"
  in
  Table.add_row tbl [ "vendor"; vendor ];
  Table.add_row tbl [ "cores"; string_of_int t.cores ];
  Table.add_row tbl [ "frequency"; Printf.sprintf "%.2f GHz" t.freq_ghz ];
  Table.add_row tbl
    [ "SIMD";
      Printf.sprintf "%d DP lanes, %d FMA ports" t.simd.dp_lanes
        t.simd.fma_ports ];
  Table.add_row tbl
    [ "peak DP/core"; Units.gflops (peak_flops_core t) ];
  Array.iter
    (fun l ->
      Table.add_row tbl
        [ l.Cache_level.name; Format.asprintf "%a" Cache_level.pp l ])
    t.caches;
  Table.add_row tbl [ "memory BW (chip)"; Units.gbs (t.mem_bw_chip_gbs *. 1e9) ];
  Table.add_row tbl
    [ "ECM composition";
      (match t.overlap with
      | Serial -> "serial (non-overlapping transfers)"
      | Overlapping -> "overlapping transfers") ];
  tbl
