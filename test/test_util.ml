open Yasksite_util

let check_float = Alcotest.(check (float 1e-9))

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "singleton" 5.0 (Stats.mean [| 5.0 |])

let test_median_percentile () =
  check_float "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p0" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:0.0);
  check_float "p100" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:100.0);
  check_float "p50 interp" 1.5 (Stats.percentile [| 1.0; 2.0 |] ~p:50.0)

let test_minmax () =
  check_float "min" (-2.0) (Stats.minimum [| 3.0; -2.0; 1.0 |]);
  check_float "max" 3.0 (Stats.maximum [| 3.0; -2.0; 1.0 |])

let test_rel_error () =
  check_float "signed" (-0.5) (Stats.rel_error ~predicted:1.0 ~measured:2.0);
  check_float "abs" 0.5 (Stats.abs_rel_error ~predicted:1.0 ~measured:2.0);
  Alcotest.check_raises "zero measured"
    (Invalid_argument "Stats.rel_error: zero measurement") (fun () ->
      ignore (Stats.rel_error ~predicted:1.0 ~measured:0.0))

let test_kendall () =
  check_float "identical" 1.0
    (Stats.kendall_tau [| 1.0; 2.0; 3.0 |] [| 10.0; 20.0; 30.0 |]);
  check_float "reversed" (-1.0)
    (Stats.kendall_tau [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]);
  check_float "partial" (1.0 /. 3.0)
    (Stats.kendall_tau [| 1.0; 2.0; 3.0 |] [| 1.0; 3.0; 2.0 |])

let test_top1 () =
  Alcotest.(check bool)
    "agree lower" true
    (Stats.top1_agrees ~better_is_lower:true [| 3.0; 1.0; 2.0 |]
       [| 30.0; 10.0; 20.0 |]);
  Alcotest.(check bool)
    "disagree" false
    (Stats.top1_agrees ~better_is_lower:true [| 3.0; 1.0; 2.0 |]
       [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool)
    "agree higher" true
    (Stats.top1_agrees ~better_is_lower:false [| 3.0; 1.0; 2.0 |]
       [| 30.0; 10.0; 20.0 |])

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done;
  let c = Prng.create ~seed:8 in
  Alcotest.(check bool)
    "different seed differs" true
    (Prng.int64 (Prng.create ~seed:7) <> Prng.int64 c)

let test_prng_split () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  Alcotest.(check bool) "split independent" true (Prng.int64 a <> Prng.int64 b)

let prng_bounds =
  QCheck.Test.make ~name:"prng int within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng ~bound in
      v >= 0 && v < bound)

let prng_float_unit =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let v = Prng.float rng in
      v >= 0.0 && v < 1.0)

let test_table () =
  let t =
    Table.create ~title:"T" ~columns:[ ("name", Table.Left); ("v", Table.Right) ] ()
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains alpha" true
    (Astring_contains.contains s "alpha");
  Alcotest.(check bool) "contains 22" true (Astring_contains.contains s "22");
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "cell_f" "3.14" (Table.cell_f ~prec:2 3.14159);
  Alcotest.(check string) "cell_pct" "7.3%" (Table.cell_pct 0.073)

let test_chart_line () =
  let s =
    Chart.line ~title:"t" ~x_label:"x" ~y_label:"y"
      [ { Chart.label = "a"; points = [| (0.0, 0.0); (1.0, 1.0) |] };
        { Chart.label = "b"; points = [| (0.0, 1.0); (1.0, 0.0) |] } ]
  in
  Alcotest.(check bool) "mentions labels" true
    (Astring_contains.contains s "a" && Astring_contains.contains s "b");
  Alcotest.(check bool) "has glyph" true (Astring_contains.contains s "*")

let test_units () =
  Alcotest.(check string) "bytes" "48 KiB" (Units.bytes 49152);
  Alcotest.(check string) "small bytes" "100 B" (Units.bytes 100);
  Alcotest.(check string) "gbs" "105.0 GB/s" (Units.gbs 105e9)

let qt = QCheck_alcotest.to_alcotest

let base_suite =
  [ Alcotest.test_case "stats mean" `Quick test_mean;
    Alcotest.test_case "stats median/percentile" `Quick test_median_percentile;
    Alcotest.test_case "stats min/max" `Quick test_minmax;
    Alcotest.test_case "stats rel error" `Quick test_rel_error;
    Alcotest.test_case "stats kendall tau" `Quick test_kendall;
    Alcotest.test_case "stats top1" `Quick test_top1;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    qt prng_bounds;
    qt prng_float_unit;
    Alcotest.test_case "table render" `Quick test_table;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "chart line" `Quick test_chart_line;
    Alcotest.test_case "units" `Quick test_units ]

let test_kendall_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.kendall_tau: length mismatch") (fun () ->
      ignore (Stats.kendall_tau [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "too short"
    (Invalid_argument "Stats.kendall_tau: need at least two points")
    (fun () -> ignore (Stats.kendall_tau [| 1.0 |] [| 1.0 |]))

let test_units_more () =
  Alcotest.(check string) "gib" "2.0 GiB" (Units.bytes (2 * 1024 * 1024 * 1024));
  Alcotest.(check string) "mib" "1.5 MiB" (Units.bytes (3 * 512 * 1024));
  Alcotest.(check string) "gflops" "1.50 GF/s" (Units.gflops 1.5e9)

let test_chart_degenerate () =
  (* A single flat series must not divide by zero. *)
  let s =
    Chart.line ~title:"flat" ~x_label:"x" ~y_label:"y"
      [ { Chart.label = "a"; points = [| (1.0, 5.0) |] } ]
  in
  Alcotest.(check bool) "rendered" true (String.length s > 0);
  Alcotest.check_raises "empty series" (Invalid_argument "Chart.line: no points")
    (fun () ->
      ignore (Chart.line ~title:"t" ~x_label:"x" ~y_label:"y" []))

let test_percentile_validation () =
  Alcotest.check_raises "p range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:101.0));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let extra_suite =
  [ Alcotest.test_case "kendall validation" `Quick test_kendall_validation;
    Alcotest.test_case "units more" `Quick test_units_more;
    Alcotest.test_case "chart degenerate" `Quick test_chart_degenerate;
    Alcotest.test_case "percentile validation" `Quick test_percentile_validation ]

let test_mad () =
  check_float "constant" 0.0 (Stats.mad [| 3.0; 3.0; 3.0 |]);
  (* median 3, abs devs [2;1;0;1;2] -> median 1 *)
  check_float "symmetric" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  (* the outlier moves the mean but barely moves the MAD *)
  check_float "outlier-resistant" 1.0
    (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 1000.0 |]);
  check_float "singleton" 0.0 (Stats.mad [| 42.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mad: empty input")
    (fun () -> ignore (Stats.mad [||]))

let test_clock_manual () =
  let c = Clock.manual () in
  check_float "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  check_float "advances" 1.75 (Clock.now c);
  let c2 = Clock.manual ~start:10.0 () in
  check_float "custom start" 10.0 (Clock.now c2);
  Alcotest.check_raises "negative delta"
    (Invalid_argument "Clock.advance: negative delta") (fun () ->
      Clock.advance c (-1.0));
  Alcotest.check_raises "system not advanceable"
    (Invalid_argument "Clock.advance: not a manual clock") (fun () ->
      Clock.advance Clock.system 1.0)

let test_clock_of_fun () =
  let n = ref 0.0 in
  let c =
    Clock.of_fun (fun () ->
        n := !n +. 1.0;
        !n)
  in
  check_float "first read" 1.0 (Clock.now c);
  check_float "second read" 2.0 (Clock.now c);
  Alcotest.(check bool) "system clock readable" true
    (Clock.now Clock.system >= 0.0)

let test_clock_system_wall () =
  (* CPU time barely moves while the process sleeps; wall time must. *)
  let t0 = Clock.now Clock.system in
  Unix.sleepf 0.1;
  let dt = Clock.now Clock.system -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "advanced %.3f s across a 0.1 s sleep" dt)
    true (dt >= 0.09)

let check_json = Alcotest.(check string)

let test_json_escapes () =
  check_json "short escapes" {|"q\"b\\s\nn\rr\tt"|}
    (Json.to_string (String "q\"b\\s\nn\rr\tt"));
  check_json "other control bytes" {|"\u0001\u001f\u0000"|}
    (Json.to_string (String "\x01\x1f\x00"));
  check_json "UTF-8 and DEL pass through" "\"caf\xc3\xa9 \x7f\""
    (Json.to_string (String "caf\xc3\xa9 \x7f"));
  check_json "keys escape too" {|{"a\"b":1}|}
    (Json.to_string (Obj [ ("a\"b", Int 1) ]))

let test_json_numbers () =
  check_json "non-finite floats" "[null,null,null]"
    (Json.to_string (List [ Float nan; Float infinity; Float neg_infinity ]));
  check_json "finite floats"
    "[0.1,1.5,100,-0.25,1e-07,0.3333333333333333,0.30000000000000004]"
    (Json.to_string
       (List
          [ Float 0.1; Float 1.5; Float 100.0; Float (-0.25); Float 1e-7;
            Float (1.0 /. 3.0); Float (0.1 +. 0.2) ]));
  check_json "ints, bools, null" "[-3,true,false,null]"
    (Json.to_string (List [ Int (-3); Bool true; Bool false; Null ]))

let test_json_containers () =
  check_json "empty list" "[]" (Json.to_string (List []));
  check_json "empty object" "{}" (Json.to_string (Obj []));
  check_json "nesting" {|{"a":[1,{"b":null,"c":[]}],"d":{"e":"f"}}|}
    (Json.to_string
       (Obj
          [ ("a", List [ Int 1; Obj [ ("b", Null); ("c", List []) ] ]);
            ("d", Obj [ ("e", String "f") ]) ]))

let test_json_layouts () =
  let v : Json.t =
    Obj
      [ ("n", Int 1);
        ("dims", List [ Int 64; Int 64 ]);
        ("rows", List [ Obj [ ("x", Float 0.5); ("ok", Bool true) ]; Obj [] ]);
        ("none", List []);
        ("sub", Obj [ ("k", String "v") ]) ]
  in
  check_json "indented"
    "{\n\
    \  \"n\": 1,\n\
    \  \"dims\": [64, 64],\n\
    \  \"rows\": [\n\
    \    {\n\
    \      \"x\": 0.5,\n\
    \      \"ok\": true\n\
    \    },\n\
    \    {}\n\
    \  ],\n\
    \  \"none\": [],\n\
    \  \"sub\": {\n\
    \    \"k\": \"v\"\n\
    \  }\n\
     }"
    (Json.to_string_indented v);
  check_json "rows: top-level arrays one element per line"
    "{\"n\":1,\"dims\":[\n\
    \  64,\n\
    \  64\n\
     ],\"rows\":[\n\
    \  {\"x\":0.5,\"ok\":true},\n\
    \  {}\n\
     ],\"none\":[\n\
     ],\"sub\":{\"k\":\"v\"}}"
    (Json.to_string_rows v)

let test_gaussian () =
  let a = Prng.create ~seed:11 and b = Prng.create ~seed:11 in
  for _ = 1 to 50 do
    check_float "deterministic" (Prng.gaussian a) (Prng.gaussian b)
  done;
  let rng = Prng.create ~seed:12 in
  let n = 2000 in
  let samples = Array.init n (fun _ -> Prng.gaussian rng) in
  let w = Stats.welford_create () in
  Array.iter (Stats.welford_add w) samples;
  let m = Stats.welford_mean w and sd = Stats.welford_stddev w in
  Alcotest.(check bool)
    (Printf.sprintf "mean near 0 (%.3f)" m)
    true
    (abs_float m < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "stddev near 1 (%.3f)" sd)
    true
    (abs_float (sd -. 1.0) < 0.1);
  Array.iter
    (fun x -> Alcotest.(check bool) "finite" true (Float.is_finite x))
    samples

let robust_suite =
  [ Alcotest.test_case "stats mad" `Quick test_mad;
    Alcotest.test_case "clock manual" `Quick test_clock_manual;
    Alcotest.test_case "clock of_fun" `Quick test_clock_of_fun;
    Alcotest.test_case "prng gaussian" `Quick test_gaussian;
    Alcotest.test_case "clock system is wall time" `Quick
      test_clock_system_wall;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json containers" `Quick test_json_containers;
    Alcotest.test_case "json layouts" `Quick test_json_layouts ]

let suite = base_suite @ extra_suite @ robust_suite
