open Yasksite_cachesim
module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let tiny_level ?(assoc = 2) ?(sets = 2) () =
  Cache_level.v ~name:"T" ~size_bytes:(assoc * sets * 64) ~assoc
    ~bytes_per_cycle:1.0 ~latency_cycles:1.0 ()

let test_level_basics () =
  let l = Level.create (tiny_level ()) ~effective_size:(2 * 2 * 64) in
  Alcotest.(check int) "capacity" 4 (Level.capacity_lines l);
  Alcotest.(check bool) "miss when empty" false
    (Level.probe l ~line:0 ~dirty:false);
  Alcotest.(check int) "insert fresh" (-1) (Level.insert l ~line:0 ~dirty:false);
  Alcotest.(check bool) "hit after insert" true
    (Level.probe l ~line:0 ~dirty:false);
  Alcotest.(check int) "resident" 1 (Level.resident_lines l)

(* An evicted or inserted entry is [line lsl 1 lor dirty]. *)
let entry line ~dirty = (line lsl 1) lor Bool.to_int dirty

let test_level_lru () =
  (* One set (sets=1), assoc 2: lines with the same set index conflict. *)
  let l = Level.create (tiny_level ~assoc:2 ~sets:1 ()) ~effective_size:(2 * 64) in
  ignore (Level.insert l ~line:0 ~dirty:false : int);
  ignore (Level.insert l ~line:1 ~dirty:false : int);
  (* Touch 0 so 1 becomes LRU. *)
  Alcotest.(check bool) "touch 0" true (Level.probe l ~line:0 ~dirty:false);
  let evicted = Level.insert l ~line:2 ~dirty:false in
  Alcotest.(check int) "evicts LRU line 1" (entry 1 ~dirty:false) evicted;
  Alcotest.(check bool) "0 still there" true (Level.is_present l ~line:0)

let test_level_dirty () =
  let l = Level.create (tiny_level ~assoc:1 ~sets:1 ()) ~effective_size:64 in
  ignore (Level.insert l ~line:5 ~dirty:false : int);
  (* A write hit marks the line; a later read hit keeps the mark. *)
  Alcotest.(check bool) "write hit" true (Level.probe l ~line:5 ~dirty:true);
  Alcotest.(check bool) "read hit" true (Level.probe l ~line:5 ~dirty:false);
  let evicted = Level.insert l ~line:6 ~dirty:false in
  Alcotest.(check int) "dirty evict" (entry 5 ~dirty:true) evicted

let test_level_extract () =
  let l = Level.create (tiny_level ()) ~effective_size:(4 * 64) in
  ignore (Level.insert l ~line:3 ~dirty:true : int);
  Alcotest.(check int) "extract dirty" 1 (Level.extract l ~line:3);
  Alcotest.(check bool) "gone" false (Level.is_present l ~line:3);
  Alcotest.(check int) "extract missing" (-1) (Level.extract l ~line:3);
  ignore (Level.insert l ~line:3 ~dirty:false : int);
  Alcotest.(check int) "extract clean" 0 (Level.extract l ~line:3)

let test_level_refresh_no_evict () =
  let l = Level.create (tiny_level ~assoc:1 ~sets:1 ()) ~effective_size:64 in
  ignore (Level.insert l ~line:9 ~dirty:false : int);
  Alcotest.(check int) "reinsert evicts nothing" (-1)
    (Level.insert l ~line:9 ~dirty:true);
  let evicted = Level.insert l ~line:10 ~dirty:false in
  Alcotest.(check int) "dirty ORed" (entry 9 ~dirty:true) evicted

(* A full set with one line extracted takes the next insert into the
   freed way: nothing is evicted and every other line stays. *)
let test_level_extract_then_insert () =
  let l = Level.create (tiny_level ~assoc:4 ~sets:1 ()) ~effective_size:(4 * 64) in
  List.iter
    (fun line -> ignore (Level.insert l ~line ~dirty:(line = 12) : int))
    [ 10; 11; 12; 13 ];
  Alcotest.(check int) "extract from the middle" 0 (Level.extract l ~line:11);
  Alcotest.(check int) "insert into the freed way" (-1)
    (Level.insert l ~line:14 ~dirty:false);
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "line %d present" line) true
        (Level.is_present l ~line))
    [ 10; 12; 13; 14 ];
  (* The set is full again: the next insert evicts the LRU line. *)
  Alcotest.(check int) "then evicts the LRU line" (entry 10 ~dirty:false)
    (Level.insert l ~line:15 ~dirty:false)

(* --- hierarchy --- *)

let test_cold_stream () =
  let h = Hierarchy.create Machine.test_chip in
  let n = 32 in
  for i = 0 to n - 1 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "L1 misses" n c.Hierarchy.misses.(0);
  Alcotest.(check int) "mem loads" n c.Hierarchy.mem_loads;
  Alcotest.(check int) "boundary L1" n (Hierarchy.traffic_lines h ~level:0);
  Alcotest.(check int) "boundary mem" n (Hierarchy.traffic_lines h ~level:2);
  (* Second pass: everything fits in L1 (4 KiB = 64 lines). *)
  Hierarchy.reset_counters h;
  for i = 0 to n - 1 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "all L1 hits" n c.Hierarchy.hits.(0);
  Alcotest.(check int) "no mem" 0 c.Hierarchy.mem_loads

let test_same_line_hits () =
  let h = Hierarchy.create Machine.test_chip in
  Hierarchy.read h ~addr:0;
  Hierarchy.read h ~addr:8;
  Hierarchy.read h ~addr:63;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "one miss" 1 c.Hierarchy.misses.(0);
  Alcotest.(check int) "two hits" 2 c.Hierarchy.hits.(0)

let test_write_allocate_writeback () =
  let h = Hierarchy.create Machine.test_chip in
  (* Write one line, then stream enough lines to flush it out of all
     levels (L3 is 256 KiB = 4096 lines). *)
  Hierarchy.write h ~addr:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "write-allocate fetch" 1 c.Hierarchy.mem_loads;
  for i = 1 to 8192 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "dirty line written back" 1 c.Hierarchy.mem_writebacks

let test_l2_hit () =
  let h = Hierarchy.create Machine.test_chip in
  (* Touch 128 lines (8 KiB): evicts half of L1 (4 KiB) but fits L2. *)
  for i = 0 to 127 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  Hierarchy.reset_counters h;
  for i = 0 to 127 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "no mem traffic" 0 c.Hierarchy.mem_loads;
  Alcotest.(check bool) "L2 hits happen" true (c.Hierarchy.hits.(1) > 0)

let test_victim_l3 () =
  let rome = Machine.scaled ~factor:64 Machine.rome in
  let h = Hierarchy.create rome in
  (* L1 512 B = 8 lines, L2 8 KiB = 128 lines, L3 victim 256 KiB/4 ->
     effective for 1 core: 256 KiB = 4096 lines. Stream 256 lines: they
     spill from L2 into the victim L3. *)
  for i = 0 to 255 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  Hierarchy.reset_counters h;
  for i = 0 to 255 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "no second-pass mem traffic" 0 c.Hierarchy.mem_loads;
  Alcotest.(check bool) "L3 victim hits" true (c.Hierarchy.hits.(2) > 0)

let test_active_cores_shrink () =
  let h1 = Hierarchy.create ~active_cores:1 Machine.test_chip in
  let h4 = Hierarchy.create ~active_cores:4 Machine.test_chip in
  (* 2048 lines = 128 KiB: fits the full 256 KiB L3 but not a quarter. *)
  let stream h =
    for i = 0 to 2047 do
      Hierarchy.read h ~addr:(i * 64)
    done
  in
  stream h1;
  stream h4;
  Hierarchy.reset_counters h1;
  Hierarchy.reset_counters h4;
  stream h1;
  stream h4;
  let c1 = Hierarchy.counters h1 and c4 = Hierarchy.counters h4 in
  Alcotest.(check int) "full share: stays in L3" 0 c1.Hierarchy.mem_loads;
  Alcotest.(check bool) "quarter share: spills" true
    (c4.Hierarchy.mem_loads > 0)

let random_trace_invariants =
  QCheck.Test.make ~name:"hierarchy conservation invariants" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let machine =
        if Prng.bool rng then Machine.test_chip
        else Machine.scaled ~factor:64 Machine.rome
      in
      let h = Hierarchy.create machine in
      let n = 2000 in
      for _ = 1 to n do
        let addr = Prng.int rng ~bound:(1 lsl 20) in
        if Prng.bool rng then Hierarchy.read h ~addr else Hierarchy.write h ~addr
      done;
      let c = Hierarchy.counters h in
      c.Hierarchy.accesses = n
      && c.Hierarchy.loads + c.Hierarchy.stores = n
      && c.Hierarchy.hits.(0) + c.Hierarchy.misses.(0) = n
      && c.Hierarchy.mem_loads <= c.Hierarchy.misses.(0)
      && Hierarchy.traffic_lines h ~level:0 >= c.Hierarchy.misses.(0)
      && c.Hierarchy.mem_writebacks <= c.Hierarchy.stores)

let test_flush () =
  let h = Hierarchy.create Machine.test_chip in
  Hierarchy.read h ~addr:0;
  Hierarchy.flush h;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "counters cleared" 0 c.Hierarchy.accesses;
  Hierarchy.read h ~addr:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "cold again" 1 c.Hierarchy.misses.(0)

let base_suite =
  [ Alcotest.test_case "level basics" `Quick test_level_basics;
    Alcotest.test_case "level LRU" `Quick test_level_lru;
    Alcotest.test_case "level dirty" `Quick test_level_dirty;
    Alcotest.test_case "level extract" `Quick test_level_extract;
    Alcotest.test_case "level refresh" `Quick test_level_refresh_no_evict;
    Alcotest.test_case "level insert after extract" `Quick
      test_level_extract_then_insert;
    Alcotest.test_case "cold stream" `Quick test_cold_stream;
    Alcotest.test_case "same-line hits" `Quick test_same_line_hits;
    Alcotest.test_case "write allocate + writeback" `Quick
      test_write_allocate_writeback;
    Alcotest.test_case "L2 hit path" `Quick test_l2_hit;
    Alcotest.test_case "victim L3 (Rome)" `Quick test_victim_l3;
    Alcotest.test_case "active cores shrink share" `Quick
      test_active_cores_shrink;
    qt random_trace_invariants;
    Alcotest.test_case "flush" `Quick test_flush ]

let test_write_hit_no_traffic () =
  let h = Hierarchy.create Machine.test_chip in
  Hierarchy.write h ~addr:0;
  Hierarchy.reset_counters h;
  Hierarchy.write h ~addr:8;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "write hit" 1 c.Hierarchy.hits.(0);
  Alcotest.(check int) "no line movement" 0 (Hierarchy.traffic_lines h ~level:0)

let test_traffic_bytes () =
  let h = Hierarchy.create Machine.test_chip in
  for i = 0 to 9 do
    Hierarchy.read h ~addr:(i * 64)
  done;
  Alcotest.(check int) "bytes = lines * 64" 640
    (Hierarchy.traffic_lines h ~level:2 * Hierarchy.line_bytes h);
  Alcotest.(check int) "line size exposed" 64 (Hierarchy.line_bytes h);
  Alcotest.(check int) "levels" 3 (Hierarchy.levels h)




let test_write_nt () =
  let h = Hierarchy.create Machine.test_chip in
  (* 8 element stores = one line's worth: exactly one memory line, no
     fetch, nothing allocated. *)
  for i = 0 to 7 do
    Hierarchy.write_nt h ~addr:(i * 8)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "no fetch" 0 c.Hierarchy.mem_loads;
  Alcotest.(check int) "one line to memory" 1 (Hierarchy.traffic_lines h ~level:2);
  Alcotest.(check int) "no L1 fill" 0 (Hierarchy.traffic_lines h ~level:0);
  Alcotest.(check int) "counted" 8 c.Hierarchy.nt_stores;
  (* A resident copy is invalidated (Intel MOVNT semantics): the next
     load of the line misses. *)
  Hierarchy.flush h;
  Hierarchy.read h ~addr:4096;
  Hierarchy.reset_counters h;
  for i = 0 to 7 do
    Hierarchy.write_nt h ~addr:(4096 + (i * 8))
  done;
  Alcotest.(check int) "streamed line" 1 (Hierarchy.traffic_lines h ~level:2);
  Hierarchy.read h ~addr:4096;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "copy was invalidated" 1 c.Hierarchy.misses.(0)

(* The simulator against [Cachesim_reference], the recency-ordered
   levels against the stamp-scanning ones they replaced: random streams
   of reads, writes and streaming stores over 4 KiB to 8 MiB, with the
   counters reset part way, must leave every counter and every
   boundary's traffic identical. The machines cover an inclusive and a
   victim L3, and full-size shared levels split among 1 to [cores]
   active cores. *)
module Ref = Cachesim_reference

let reference_machines =
  lazy
    (Array.of_list
       ([ Machine.test_chip;
          Machine.scaled ~factor:8 Machine.cascade_lake;
          Machine.scaled ~factor:64 Machine.rome ]
       @ Test_schedule.shipped_machines ()))

let render_counters ((c : Hierarchy.counters), traffic) =
  let ints a = String.concat "," (List.map string_of_int a) in
  Printf.sprintf
    "accesses %d loads %d stores %d hits %s misses %s writebacks %s \
     mem_loads %d mem_writebacks %d nt %d/%d traffic %s"
    c.Hierarchy.accesses c.Hierarchy.loads c.Hierarchy.stores
    (ints (Array.to_list c.Hierarchy.hits))
    (ints (Array.to_list c.Hierarchy.misses))
    (ints (Array.to_list c.Hierarchy.writebacks))
    c.Hierarchy.mem_loads c.Hierarchy.mem_writebacks c.Hierarchy.nt_stores
    c.Hierarchy.nt_lines (ints traffic)

let hierarchy_equals_reference =
  QCheck.Test.make ~name:"hierarchy = reference" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let machines = Lazy.force reference_machines in
      let m = machines.(Prng.int rng ~bound:(Array.length machines)) in
      let active_cores = 1 + Prng.int rng ~bound:m.Machine.cores in
      let h = Hierarchy.create ~active_cores m
      and r = Ref.Hierarchy.create ~active_cores m in
      let span = 1 lsl (12 + Prng.int rng ~bound:12) in
      let n = 20_000 in
      let reset_at = Prng.int rng ~bound:n in
      (* Half the addresses are uniform over the span, half walk it in
         8-byte steps, so the stream has both scattered misses and runs
         of hits. *)
      let cursor = ref (Prng.int rng ~bound:span) in
      for i = 0 to n - 1 do
        if i = reset_at then begin
          Hierarchy.reset_counters h;
          Ref.Hierarchy.reset_counters r
        end;
        let addr =
          if Prng.bool rng then Prng.int rng ~bound:span
          else begin
            cursor := (!cursor + 8) mod span;
            !cursor
          end
        in
        match Prng.int rng ~bound:10 with
        | 0 ->
            Hierarchy.write_nt h ~addr;
            Ref.Hierarchy.write_nt r ~addr
        | 1 | 2 | 3 | 4 ->
            Hierarchy.write h ~addr;
            Ref.Hierarchy.write r ~addr
        | _ ->
            Hierarchy.read h ~addr;
            Ref.Hierarchy.read r ~addr
      done;
      let levels = List.init (Hierarchy.levels h) Fun.id in
      let ours =
        ( Hierarchy.counters h,
          List.map (fun level -> Hierarchy.traffic_lines h ~level) levels )
      and theirs =
        ( Ref.Hierarchy.counters r,
          List.map (fun level -> Ref.Hierarchy.traffic_lines r ~level) levels
        )
      in
      ours = theirs
      || QCheck.Test.fail_reportf
           "%s, %d active cores, span %d:\n  simulator %s\n  reference %s"
           m.Machine.name active_cores span (render_counters ours)
           (render_counters theirs))

let extra_suite =
  [ Alcotest.test_case "write hit no traffic" `Quick test_write_hit_no_traffic;
    Alcotest.test_case "traffic bytes" `Quick test_traffic_bytes;
    Alcotest.test_case "streaming stores" `Quick test_write_nt;
    qt hierarchy_equals_reference ]

let suite = base_suite @ extra_suite
