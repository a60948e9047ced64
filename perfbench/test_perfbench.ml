(* Unit tests of the benchmark's own code: the summaries, span self
   time, and the trace writer's output read back as JSON. *)

(* A small JSON reader, enough to parse what [Json] writes. *)
type json =
  | N of float
  | B of bool
  | S of string
  | A of json list
  | O of (string * json) list
  | Null

let parse s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let literal w v =
    if String.length s >= !pos + String.length w
       && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      v
    end
    else failwith ("bad literal at " ^ string_of_int !pos)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          (match s.[!pos + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 'u' ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4)));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          pos := !pos + 2;
          go ()
      | '\000' -> failwith "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; O [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if peek () = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; O (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; A [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if peek () = ',' then (incr pos; items (v :: acc))
            else (expect ']'; A (List.rev (v :: acc)))
          in
          items []
    | '"' -> S (string ())
    | 't' -> literal "true" (B true)
    | 'f' -> literal "false" (B false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          match peek () with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        N (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  skip ();
  if !pos <> String.length s then failwith "trailing input";
  v

let member k = function
  | O l -> List.assoc k l
  | _ -> failwith ("not an object looking up " ^ k)

let num = function N f -> f | _ -> failwith "not a number"

let span id ~parent start stop =
  { Span.id;
    name = Printf.sprintf "s%d" id;
    op = 0;
    parent;
    start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop }

let close = Alcotest.float 1e-12

let test_summary () =
  Alcotest.check close "median odd" 2.0 (Summary.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "median even" 2.5 (Summary.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "median empty" 0.0 (Summary.median [||]);
  (* 1..100: rank 0.9 * 99 = 89.1 lies between 90 and 91. *)
  Alcotest.check close "p90 of 1..100" 90.1
    (Summary.p90 (Array.init 100 (fun i -> float_of_int (100 - i))));
  Alcotest.check close "p90 single" 7.0 (Summary.p90 [| 7.0 |]);
  Alcotest.check close "p90 empty" 0.0 (Summary.p90 [||]);
  Alcotest.(check (list (pair string close)))
    "medians, missing keys count 0"
    [ ("a", 2.0); ("b", 0.0) ]
    (Summary.medians [ [ ("a", 1.0) ]; [ ("a", 2.0); ("b", 5.0) ]; [ ("a", 3.0) ] ])

let test_self_time () =
  (* Parent [0, 100] ns; children [10, 30] and [20, 50] overlap, [90,
     120] is clipped to 100: 50 ns covered. The grandchild only counts
     against its own parent. *)
  let spans =
    [ span 0 ~parent:(-1) 0 100;
      span 1 ~parent:0 10 30;
      span 2 ~parent:0 20 50;
      span 3 ~parent:0 90 120;
      span 4 ~parent:1 12 28 ]
  in
  let self = Span.self_seconds spans in
  let get id = List.assoc id self in
  Alcotest.check close "parent" 50e-9 (get 0);
  Alcotest.check close "child with grandchild" 4e-9 (get 1);
  Alcotest.check close "leaf" 30e-9 (get 2);
  Alcotest.check close "unrelated sibling untouched" 30e-9 (get 3)

let test_recording () =
  Span.set_recording true;
  Span.set_op 7;
  let r =
    Span.with_ "outer" (fun () ->
        Span.count "things" 2.0;
        Span.with_ "inner" (fun () -> 41) + 1)
  in
  (try Span.with_ "raises" (fun () -> failwith "x") with Failure _ -> ());
  Span.set_recording false;
  ignore (Span.with_ "off" (fun () -> ()));
  Span.count "off" 1.0;
  Alcotest.(check int) "value" 42 r;
  let spans = Span.spans () in
  Alcotest.(check (list string)) "recorded, oldest first"
    [ "inner"; "outer"; "raises" ]
    (List.map (fun s -> s.Span.name) spans);
  let find n = List.find (fun s -> s.Span.name = n) spans in
  Alcotest.(check int) "inner's parent" (find "outer").Span.id (find "inner").Span.parent;
  Alcotest.(check int) "top level" (-1) (find "raises").Span.parent;
  let totals = List.assoc 7 (Span.per_op ()) in
  Alcotest.(check (list string)) "per-op keys"
    [ "inner_s"; "outer_s"; "raises_s"; "things" ]
    (List.map fst totals);
  Alcotest.check close "counter" 2.0 (List.assoc "things" totals);
  let outer = find "outer" and inner = find "inner" in
  Alcotest.check close "outer self excludes inner"
    (Span.seconds outer.Span.start_ns outer.Span.stop_ns
    -. Span.seconds inner.Span.start_ns inner.Span.stop_ns)
    (List.assoc "outer_s" totals)

let test_chrome_parses () =
  let spans =
    [ { (span 0 ~parent:(-1) 1_000 9_000) with Span.name = "op \"quoted\"\n" };
      { (span 1 ~parent:0 2_000 3_500) with Span.op = 3 } ]
  in
  let doc = parse (Span.to_chrome spans) in
  let events = match member "traceEvents" doc with A l -> l | _ -> [] in
  Alcotest.(check int) "events" 2 (List.length events);
  let e0 = List.nth events 0 and e1 = List.nth events 1 in
  Alcotest.(check string) "escaped name" "op \"quoted\"\n"
    (match member "name" e0 with S s -> s | _ -> "");
  Alcotest.(check string) "complete event" "X"
    (match member "ph" e1 with S s -> s | _ -> "");
  Alcotest.check close "ts from first start, us" 0.0 (num (member "ts" e0));
  Alcotest.check close "dur us" 8.0 (num (member "dur" e0));
  Alcotest.check close "child ts" 1.0 (num (member "ts" e1));
  Alcotest.check close "child dur" 1.5 (num (member "dur" e1));
  let args = member "args" e1 in
  Alcotest.check close "parent" 0.0 (num (member "parent" args));
  Alcotest.check close "op" 3.0 (num (member "op" args))

let test_json_values () =
  let v =
    Json.Obj
      [ ("x", Json.Num 0.1); ("n", Json.Int (-3)); ("b", Json.Bool false);
        ("c", Json.Str "tab\there"); ("inf", Json.Num infinity); ("l", Json.Arr []) ]
  in
  let doc = parse (Json.to_string v) in
  Alcotest.check close "all digits" 0.1 (num (member "x" doc));
  Alcotest.check close "int" (-3.0) (num (member "n" doc));
  Alcotest.(check bool) "bool" true (member "b" doc = B false);
  Alcotest.(check bool) "control char" true (member "c" doc = S "tab\there");
  Alcotest.(check bool) "non-finite is null" true (member "inf" doc = Null)

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recording" `Quick test_recording;
          Alcotest.test_case "chrome trace parses back" `Quick test_chrome_parses;
          Alcotest.test_case "json values" `Quick test_json_values ] ) ]
