(* Stencil programs: DAGs of named stages over named fields.

   The module is deliberately lenient at construction: [v] enforces
   only the invariants without which a program cannot even be
   inspected (field indices inside each stage's read table, offset
   ranks). Everything semantic — cycles, undefined fields, duplicate
   or reserved names, dead stages — is reported by [issues] as typed
   values, so the lint layer can attach stable YS7xx codes and the
   tests can assert on structure rather than message text. *)

type stage = { name : string; reads : string array; expr : Expr.t }

type t = {
  name : string;
  rank : int;
  inputs : string array;
  stages : stage array;
  outputs : string array;
}

let v ~name ~rank ~inputs ~outputs stages =
  if rank < 1 || rank > 3 then invalid_arg "Program: rank must be 1..3";
  if stages = [] then invalid_arg "Program: no stages";
  List.iter
    (fun (s : stage) ->
      Expr.fold_accesses s.expr ~init:() ~f:(fun () (a : Expr.access) ->
          if Array.length a.offsets <> rank then
            invalid_arg
              (Printf.sprintf "Program: stage %s: access rank mismatch" s.name);
          if a.field < 0 || a.field >= Array.length s.reads then
            invalid_arg
              (Printf.sprintf
                 "Program: stage %s: field index %d outside the read table"
                 s.name a.field)))
    stages;
  { name; rank; inputs; stages = Array.of_list stages; outputs }

(* ------------------------------------------------------------------ *)
(* Naming and lookup *)

let is_ident name =
  String.length name > 0
  && (let c = name.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       name

(* Names the expression parser claims for itself: the builtins and the
   positional f<digits> field convention. *)
let reserved_reason name =
  match name with
  | "min" | "max" | "select" -> Some "a builtin function name"
  | _ ->
      if
        String.length name >= 2
        && name.[0] = 'f'
        && String.for_all (fun c -> c >= '0' && c <= '9')
             (String.sub name 1 (String.length name - 1))
      then Some "the positional f<digits> field convention"
      else None

let find_stage t name =
  Array.find_opt (fun (s : stage) -> s.name = name) t.stages

let stage_index t =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i (s : stage) -> Hashtbl.replace tbl s.name i) t.stages;
  tbl

let consumers t field =
  Array.to_list t.stages
  |> List.filter_map (fun (s : stage) ->
         if Array.exists (( = ) field) s.reads then Some s.name else None)

(* ------------------------------------------------------------------ *)
(* Topological order *)

exception Cycle_found of string list

let topo t =
  let idx = stage_index t in
  let n = Array.length t.stages in
  (* 0 = unvisited, 1 = on the current path, 2 = done *)
  let color = Array.make n 0 in
  let order = ref [] in
  let rec visit path i =
    match color.(i) with
    | 2 -> ()
    | 1 ->
        let name = t.stages.(i).name in
        let rec take acc = function
          | [] -> acc
          | p :: _ when p = name -> acc
          | p :: rest -> take (p :: acc) rest
        in
        raise (Cycle_found (name :: take [] path))
    | _ ->
        color.(i) <- 1;
        let path = t.stages.(i).name :: path in
        Array.iter
          (fun r ->
            match Hashtbl.find_opt idx r with
            | Some j -> visit path j
            | None -> ())
          t.stages.(i).reads;
        color.(i) <- 2;
        order := t.stages.(i).name :: !order
  in
  try
    for i = 0 to n - 1 do
      visit [] i
    done;
    Ok (List.rev !order)
  with Cycle_found names -> Error names

(* ------------------------------------------------------------------ *)
(* Semantic issues *)

type issue =
  | Bad_name of { name : string; reason : string }
  | Duplicate_name of string
  | Undefined_field of { stage : string; field : string }
  | Cycle of string list
  | Output_unknown of string
  | Dead_stage of string

let issues t =
  let acc = ref [] in
  let add i = acc := i :: !acc in
  let defined =
    Array.append t.inputs (Array.map (fun (s : stage) -> s.name) t.stages)
  in
  Array.iter
    (fun name ->
      if not (is_ident name) then
        add (Bad_name { name; reason = "not an identifier" })
      else
        match reserved_reason name with
        | Some reason ->
            add (Bad_name { name; reason = "reserved: " ^ reason })
        | None -> ())
    defined;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun name ->
      if Hashtbl.mem seen name then add (Duplicate_name name)
      else Hashtbl.replace seen name ())
    defined;
  Array.iter
    (fun (s : stage) ->
      let reported = Hashtbl.create 4 in
      Array.iter
        (fun r ->
          if
            (not (Hashtbl.mem seen r))
            && not (Hashtbl.mem reported r)
          then begin
            Hashtbl.replace reported r ();
            add (Undefined_field { stage = s.name; field = r })
          end)
        s.reads)
    t.stages;
  (match topo t with Error names -> add (Cycle names) | Ok _ -> ());
  let idx = stage_index t in
  Array.iter
    (fun o -> if not (Hashtbl.mem idx o) then add (Output_unknown o))
    t.outputs;
  (* Dead stages: walk backwards from the outputs; anything the walk
     never reaches contributes to no output. Skipped on cyclic programs
     (the cycle is the finding). *)
  (match topo t with
  | Error _ -> ()
  | Ok _ ->
      let live = Hashtbl.create 16 in
      let rec mark name =
        if not (Hashtbl.mem live name) then begin
          Hashtbl.replace live name ();
          match Hashtbl.find_opt idx name with
          | Some i -> Array.iter mark t.stages.(i).reads
          | None -> ()
        end
      in
      Array.iter mark t.outputs;
      Array.iter
        (fun (s : stage) ->
          if not (Hashtbl.mem live s.name) then add (Dead_stage s.name))
        t.stages);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Halo accumulation *)

type halo = {
  stage_ext : (string * int array) list;
  input_halo : (string * int array) list;
}

(* Per-dimension reach of [s]'s accesses into each read field. *)
let stage_radii rank (s : stage) =
  let r = Array.map (fun _ -> Array.make rank 0) s.reads in
  Expr.fold_accesses s.expr ~init:() ~f:(fun () (a : Expr.access) ->
      Array.iteri
        (fun d off -> r.(a.field).(d) <- max r.(a.field).(d) (abs off))
        a.offsets);
  r

let halo_plan t =
  let order =
    match topo t with
    | Ok o -> o
    | Error _ -> invalid_arg "Program.halo_plan: cyclic program"
  in
  let idx = stage_index t in
  let need = Hashtbl.create 16 in
  let need_of name =
    match Hashtbl.find_opt need name with
    | Some a -> a
    | None ->
        let a = Array.make t.rank 0 in
        Hashtbl.replace need name a;
        a
  in
  (* Consumers before producers: reverse topological order, so each
     stage's extension is final before it is propagated to its reads. *)
  List.iter
    (fun sname ->
      let i =
        match Hashtbl.find_opt idx sname with
        | Some i -> i
        | None -> invalid_arg "Program.halo_plan: non-closed program"
      in
      let s = t.stages.(i) in
      let ext = need_of sname in
      let radii = stage_radii t.rank s in
      Array.iteri
        (fun j rad ->
          let dst = need_of s.reads.(j) in
          Array.iteri (fun d v -> dst.(d) <- max dst.(d) (ext.(d) + v)) rad)
        radii)
    (List.rev order);
  { stage_ext = List.map (fun n -> (n, Array.copy (need_of n))) order;
    input_halo =
      Array.to_list t.inputs
      |> List.map (fun n -> (n, Array.copy (need_of n))) }

let stage_spec t (s : stage) =
  Spec.v
    ~name:(t.name ^ "." ^ s.name)
    ~rank:t.rank
    ~n_fields:(max 1 (Array.length s.reads))
    s.expr

(* ------------------------------------------------------------------ *)
(* Fusion *)

let inlinable t =
  let idx = stage_index t in
  Array.to_list t.stages
  |> List.filter_map (fun (s : stage) ->
         if
           (not (Array.exists (( = ) s.name) t.outputs))
           && List.exists (fun c -> Hashtbl.mem idx c) (consumers t s.name)
         then Some s.name
         else None)

let fuse t ~inline =
  let inline = List.sort_uniq compare inline in
  let legal = inlinable t in
  List.iter
    (fun n ->
      if not (List.mem n legal) then
        invalid_arg (Printf.sprintf "Program.fuse: %S is not inlinable" n))
    inline;
  let order =
    match topo t with
    | Ok o -> o
    | Error _ -> invalid_arg "Program.fuse: cyclic program"
  in
  let idx = stage_index t in
  let inlined = Hashtbl.create 8 in
  let resolved = Hashtbl.create 16 in
  (* Resolve a stage against the already-fully-resolved inlined
     producers (topological order guarantees single-level lookup). The
     new read table is built in first-use order. *)
  let resolve (s : stage) =
    let rev_reads = ref [] and nslots = ref 0 in
    let slots = Hashtbl.create 8 in
    let slot name =
      match Hashtbl.find_opt slots name with
      | Some i -> i
      | None ->
          let i = !nslots in
          incr nslots;
          rev_reads := name :: !rev_reads;
          Hashtbl.replace slots name i;
          i
    in
    let expr =
      Expr.subst_accesses
        (fun (a : Expr.access) ->
          let fname = s.reads.(a.field) in
          match Hashtbl.find_opt inlined fname with
          | None ->
              Expr.Ref { field = slot fname; offsets = Array.copy a.offsets }
          | Some (p_reads, p_expr) ->
              Expr.map_accesses
                (fun (pa : Expr.access) ->
                  { Expr.field = slot p_reads.(pa.field);
                    offsets =
                      Array.mapi (fun d o -> o + a.offsets.(d)) pa.offsets })
                p_expr)
        s.expr
    in
    { s with reads = Array.of_list (List.rev !rev_reads); expr }
  in
  List.iter
    (fun sname ->
      let s = t.stages.(Hashtbl.find idx sname) in
      let s' = resolve s in
      if List.mem sname inline then
        Hashtbl.replace inlined sname (s'.reads, s'.expr)
      else Hashtbl.replace resolved sname s')
    order;
  let stages =
    Array.to_list t.stages
    |> List.filter_map (fun (s : stage) -> Hashtbl.find_opt resolved s.name)
  in
  { t with stages = Array.of_list stages }

let partitions t =
  let names = Array.of_list (inlinable t) in
  let n = Array.length names in
  let total = if n >= 30 then max_int else 1 lsl n in
  let count = min 4096 total in
  List.init count (fun mask ->
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list names))

let components t =
  let idx = stage_index t in
  let n = Array.length t.stages in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  Array.iteri
    (fun i (s : stage) ->
      Array.iter
        (fun r ->
          match Hashtbl.find_opt idx r with
          | Some j -> union i j
          | None -> ())
        s.reads)
    t.stages;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : stage) ->
      let r = find i in
      Hashtbl.replace groups r
        (s.name :: (try Hashtbl.find groups r with Not_found -> [])))
    t.stages;
  (* Components ordered by their first stage; members in definition
     order. *)
  Hashtbl.fold (fun r members acc -> (r, List.rev members) :: acc) groups []
  |> List.sort compare
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Textual format *)

let parse src =
  let lines = String.split_on_char '\n' src in
  let err line fmt = Printf.ksprintf (fun m -> Error (line, m)) fmt in
  let strip l =
    let l = match String.index_opt l '#' with
      | Some i -> String.sub l 0 i
      | None -> l
    in
    String.trim l
  in
  let words l =
    String.split_on_char ' ' l
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (( <> ) "")
  in
  (* Pass 1: collect the header and the stage (name, body, line)
     triples; expressions wait for pass 2 when every name is known. *)
  let name = ref None and rank = ref None in
  let inputs = ref [] and outputs = ref [] and stage_lines = ref [] in
  let error = ref None in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      if !error = None then
        let l = strip raw in
        if l <> "" then
          match String.index_opt l '=' with
          | Some eq ->
              let sname = String.trim (String.sub l 0 eq) in
              let body =
                String.trim
                  (String.sub l (eq + 1) (String.length l - eq - 1))
              in
              if sname = "" then
                error := Some (ln, "missing stage name before '='")
              else stage_lines := (sname, body, ln) :: !stage_lines
          | None -> (
              match words l with
              | "program" :: rest -> (
                  match (rest, !name) with
                  | [ n ], None -> name := Some n
                  | [ _ ], Some _ ->
                      error := Some (ln, "duplicate 'program' line")
                  | _ ->
                      error := Some (ln, "expected 'program <name>'"))
              | "rank" :: rest -> (
                  match (rest, !rank) with
                  | [ r ], None -> (
                      match int_of_string_opt r with
                      | Some r when r >= 1 && r <= 3 -> rank := Some r
                      | _ -> error := Some (ln, "rank must be 1, 2 or 3"))
                  | [ _ ], Some _ ->
                      error := Some (ln, "duplicate 'rank' line")
                  | _ -> error := Some (ln, "expected 'rank <1|2|3>'"))
              | "inputs" :: rest ->
                  if rest = [] then
                    error := Some (ln, "expected 'inputs <name> ...'")
                  else inputs := !inputs @ rest
              | "outputs" :: rest ->
                  if rest = [] then
                    error := Some (ln, "expected 'outputs <name> ...'")
                  else outputs := !outputs @ rest
              | w :: _ ->
                  error :=
                    Some
                      ( ln,
                        Printf.sprintf
                          "unknown directive %S (expected program, rank, \
                           inputs, outputs, or '<stage> = <expr>')"
                          w )
              | [] -> ()))
    lines;
  match !error with
  | Some (ln, msg) -> Error (ln, msg)
  | None -> (
      match (!name, !rank, List.rev !stage_lines) with
      | None, _, _ -> err 1 "missing 'program <name>' header"
      | _, None, _ -> err 1 "missing 'rank <1|2|3>' header"
      | _, _, [] -> err 1 "program has no stages"
      | Some name, Some rank, stage_lines -> (
          (* Pass 2: every input and stage name is a named field; each
             stage body is then parsed and its global field indices
             compacted into a first-use read table. *)
          let all_names =
            !inputs @ List.map (fun (n, _, _) -> n) stage_lines
          in
          let fields = List.mapi (fun i n -> (n, i)) all_names in
          let global = Array.of_list (List.map fst fields) in
          let parse_stage (sname, body, ln) =
            match Parser.parse_expr ~fields ~rank body with
            | Error msg -> Error (ln, Printf.sprintf "stage %s: %s" sname msg)
            | Ok expr ->
                let rev_reads = ref [] and nslots = ref 0 in
                let slots = Hashtbl.create 8 in
                let slot g =
                  match Hashtbl.find_opt slots g with
                  | Some i -> i
                  | None ->
                      let i = !nslots in
                      incr nslots;
                      rev_reads := global.(g) :: !rev_reads;
                      Hashtbl.replace slots g i;
                      i
                in
                let expr =
                  Expr.map_accesses
                    (fun (a : Expr.access) -> { a with field = slot a.field })
                    expr
                in
                Ok
                  { name = sname;
                    reads = Array.of_list (List.rev !rev_reads);
                    expr }
          in
          let rec all acc = function
            | [] -> Ok (List.rev acc)
            | sl :: rest -> (
                match parse_stage sl with
                | Error _ as e -> e
                | Ok s -> all (s :: acc) rest)
          in
          match all [] stage_lines with
          | Error _ as e -> e
          | Ok stages -> (
              try
                Ok
                  (v ~name ~rank
                     ~inputs:(Array.of_list !inputs)
                     ~outputs:(Array.of_list !outputs)
                     stages)
              with Invalid_argument m -> err 1 "%s" m)))

let to_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "program %s\n" t.name);
  Buffer.add_string buf (Printf.sprintf "rank %d\n" t.rank);
  if t.inputs <> [||] then
    Buffer.add_string buf
      (Printf.sprintf "inputs %s\n"
         (String.concat " " (Array.to_list t.inputs)));
  if t.outputs <> [||] then
    Buffer.add_string buf
      (Printf.sprintf "outputs %s\n"
         (String.concat " " (Array.to_list t.outputs)));
  Array.iter
    (fun (s : stage) ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %s\n" s.name
           (Expr.to_c ~field_name:(fun i -> s.reads.(i)) s.expr)))
    t.stages;
  Buffer.contents buf
