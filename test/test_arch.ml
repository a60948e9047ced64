open Yasksite_arch

let test_cache_level_validation () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Cache_level.v: size must be positive") (fun () ->
      ignore
        (Cache_level.v ~name:"L1" ~size_bytes:0 ~assoc:8 ~bytes_per_cycle:1.0
           ~latency_cycles:1.0 ()));
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Cache_level.v: size not divisible by assoc * line")
    (fun () ->
      ignore
        (Cache_level.v ~name:"L1" ~size_bytes:1000 ~assoc:8
           ~bytes_per_cycle:1.0 ~latency_cycles:1.0 ()))

let test_cache_level_derived () =
  let l =
    Cache_level.v ~name:"L1" ~size_bytes:32768 ~assoc:8 ~bytes_per_cycle:64.0
      ~latency_cycles:4.0 ()
  in
  Alcotest.(check int) "lines" 512 (Cache_level.lines l);
  let s = Cache_level.scale ~factor:8 l in
  Alcotest.(check int) "scaled size" 4096 s.Cache_level.size_bytes;
  Alcotest.(check int) "scaled lines" 64 (Cache_level.lines s);
  Alcotest.(check int) "assoc kept" 8 s.Cache_level.assoc

let test_machine_presets () =
  let clx = Machine.cascade_lake in
  Alcotest.(check int) "clx cores" 20 clx.Machine.cores;
  Alcotest.(check int) "clx lanes" 8 clx.Machine.simd.Machine.dp_lanes;
  Alcotest.(check int) "clx levels" 3 (Array.length clx.Machine.caches);
  Alcotest.(check int) "line" 64 (Machine.line_bytes clx);
  Alcotest.(check bool) "clx serial" true (clx.Machine.overlap = Machine.Serial);
  let rome = Machine.rome in
  Alcotest.(check int) "rome cores" 64 rome.Machine.cores;
  Alcotest.(check bool) "rome overlap" true
    (rome.Machine.overlap = Machine.Overlapping);
  Alcotest.(check bool) "rome L3 victim" true
    ((Machine.last_level rome).Cache_level.fill = Cache_level.Victim);
  Alcotest.(check int) "rome L3 ccx" 4
    (Machine.last_level rome).Cache_level.shared_by

let test_machine_derived () =
  let clx = Machine.cascade_lake in
  Alcotest.(check (float 1.0)) "peak flops/core" 80e9
    (Machine.peak_flops_core clx);
  Alcotest.(check (float 0.01)) "mem B/cy" 42.0
    (Machine.mem_bytes_per_cycle_chip clx)

let test_scaled () =
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  Alcotest.(check int) "L1 scaled" 4096 m.Machine.caches.(0).Cache_level.size_bytes;
  Alcotest.(check int) "cores kept" 20 m.Machine.cores;
  Alcotest.(check string) "renamed" "CascadeLake-SP/8" m.Machine.name

let test_describe () =
  let s =
    Yasksite_util.Table.render (Machine.describe Machine.cascade_lake)
  in
  Alcotest.(check bool) "mentions cores" true (Astring_contains.contains s "cores");
  Alcotest.(check bool) "mentions L3" true (Astring_contains.contains s "L3")

let test_machine_validation () =
  Alcotest.check_raises "no caches"
    (Invalid_argument "Machine.v: need at least one cache level") (fun () ->
      ignore
        (Machine.v ~name:"x" ~vendor:Machine.Generic ~freq_ghz:1.0 ~cores:1
           ~simd:Machine.cascade_lake.Machine.simd ~caches:[]
           ~mem_bw_chip_gbs:1.0 ~mem_latency_cycles:1.0
           ~overlap:Machine.Serial))

let base_suite =
  [ Alcotest.test_case "cache level validation" `Quick test_cache_level_validation;
    Alcotest.test_case "cache level derived" `Quick test_cache_level_derived;
    Alcotest.test_case "machine presets" `Quick test_machine_presets;
    Alcotest.test_case "machine derived" `Quick test_machine_derived;
    Alcotest.test_case "machine scaled" `Quick test_scaled;
    Alcotest.test_case "machine describe" `Quick test_describe;
    Alcotest.test_case "machine validation" `Quick test_machine_validation ]

let test_machine_file_roundtrip () =
  List.iter
    (fun m ->
      match Machine_file.parse (Machine_file.render m) with
      | Error e -> Alcotest.fail (m.Machine.name ^ ": " ^ e)
      | Ok m' ->
          Alcotest.(check string) "name" m.Machine.name m'.Machine.name;
          Alcotest.(check int) "cores" m.Machine.cores m'.Machine.cores;
          Alcotest.(check int) "levels" (Array.length m.Machine.caches)
            (Array.length m'.Machine.caches);
          Alcotest.(check bool) "caches equal" true
            (m.Machine.caches = m'.Machine.caches);
          Alcotest.(check bool) "simd equal" true (m.Machine.simd = m'.Machine.simd);
          Alcotest.(check (float 1e-9)) "bw" m.Machine.mem_bw_chip_gbs
            m'.Machine.mem_bw_chip_gbs)
    [ Machine.cascade_lake; Machine.rome; Machine.test_chip ]

let test_machine_file_parse () =
  let src = {|
# comment
name = Custom
vendor = amd
freq_ghz = 3.5
cores = 8
dp_lanes = 4
fma_ports = 2
mem_bw_gbs = 80
overlap = overlapping

[cache]
name = L1
size_kib = 48
assoc = 12
bytes_per_cycle = 32
latency_cycles = 5

[cache]
name = L2
size_kib = 1024
assoc = 16
shared_by = 2
fill = victim
bytes_per_cycle = 16
latency_cycles = 14
|} in
  match Machine_file.parse src with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check string) "name" "Custom" m.Machine.name;
      Alcotest.(check bool) "vendor" true (m.Machine.vendor = Machine.Amd);
      Alcotest.(check int) "levels" 2 (Array.length m.Machine.caches);
      Alcotest.(check int) "L1 size" (48 * 1024)
        m.Machine.caches.(0).Cache_level.size_bytes;
      Alcotest.(check bool) "L2 victim" true
        (m.Machine.caches.(1).Cache_level.fill = Cache_level.Victim);
      Alcotest.(check bool) "defaults applied" true
        (m.Machine.simd.Machine.load_ports = 2)

let test_machine_file_errors () =
  let expect_error src frag =
    match Machine_file.parse src with
    | Ok _ -> Alcotest.fail ("should not parse: " ^ frag)
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S mentions %S" e frag)
          true
          (Astring_contains.contains e frag)
  in
  expect_error "name = X\n" "no [cache]";
  expect_error "name\n" "key = value";
  expect_error
    "name = X\nvendor = martian\nfreq_ghz = 1\ncores = 1\ndp_lanes = 4\n\
     fma_ports = 1\nmem_bw_gbs = 10\n[cache]\nname = L1\nsize_kib = 4\n\
     assoc = 4\nbytes_per_cycle = 8\nlatency_cycles = 2\n"
    "vendor";
  expect_error
    "vendor = intel\nfreq_ghz = 1\ncores = 1\ndp_lanes = 4\nfma_ports = 1\n\
     mem_bw_gbs = 10\n[cache]\nname = L1\nsize_kib = 4\nassoc = 4\n\
     bytes_per_cycle = 8\nlatency_cycles = 2\n"
    "name";
  expect_error
    "name = X\nfreq_ghz = zoom\ncores = 1\ndp_lanes = 4\nfma_ports = 1\n\
     mem_bw_gbs = 10\n[cache]\nname = L1\nsize_kib = 4\nassoc = 4\n\
     bytes_per_cycle = 8\nlatency_cycles = 2\n"
    "not a number"

let extra_suite =
  [ Alcotest.test_case "machine file round-trip" `Quick
      test_machine_file_roundtrip;
    Alcotest.test_case "machine file parse" `Quick test_machine_file_parse;
    Alcotest.test_case "machine file errors" `Quick test_machine_file_errors ]

let suite = base_suite @ extra_suite
