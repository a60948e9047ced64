type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start_ns : int64;
  stop_ns : int64;
}

let now_ns = Monotonic_clock.now
let seconds t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let recording = ref false
let set_recording on = recording := on
let current_op = ref 0
let set_op op = current_op := op
let recorded = ref []
let counters = ref []
let next_id = ref 0
let open_spans = ref []

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_spans := id :: !open_spans;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; op; parent; start_ns; stop_ns } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count name v = if !recording then counters := (!current_op, name, v) :: !counters
let spans () = List.rev !recorded

let self_seconds spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let clipped =
        List.filter_map
          (fun c ->
            let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
            if b > a then Some (a, b) else None)
          (Hashtbl.find_all children s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, Int64.min_int) (List.sort compare clipped)
      in
      (s.id, seconds s.start_ns s.stop_ns -. (Int64.to_float covered *. 1e-9)))
    spans

let per_op () =
  let ops = Hashtbl.create 64 in
  let add op key v =
    let tbl =
      match Hashtbl.find_opt ops op with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 16 in
          Hashtbl.replace ops op t;
          t
    in
    Hashtbl.replace tbl key
      (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0)
  in
  let all = spans () in
  let self = Hashtbl.create 64 in
  List.iter (fun (id, s) -> Hashtbl.replace self id s) (self_seconds all);
  List.iter (fun s -> add s.op (s.name ^ "_s") (Hashtbl.find self s.id)) all;
  List.iter (fun (op, name, v) -> add op name v) !counters;
  Hashtbl.fold
    (fun op tbl acc ->
      (op, List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []))
      :: acc)
    ops []
  |> List.sort compare

let to_chrome spans =
  let origin =
    List.fold_left (fun m s -> min m s.start_ns) Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms");
         ( "traceEvents",
           Json.Arr
             (List.map
                (fun s ->
                  Json.Obj
                    [ ("name", Json.Str s.name);
                      ("cat", Json.Str "yasksite");
                      ("ph", Json.Str "X");
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 1);
                      ("ts", Json.Num (us s.start_ns));
                      ("dur", Json.Num (us s.stop_ns -. us s.start_ns));
                      ( "args",
                        Json.Obj
                          [ ("id", Json.Int s.id);
                            ("parent", Json.Int s.parent);
                            ("op", Json.Int s.op) ] ) ])
                spans) ) ])
