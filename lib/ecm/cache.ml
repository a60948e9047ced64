module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower
module Store = Yasksite_store.Store

(* Memoization of [Model.predict]. The model is pure — its output is a
   function of the machine, the kernel, the grid size and the config —
   so repeated rankings (Offsite scoring many variants on one machine,
   a tuner re-ranking after a resume) can reuse earlier evaluations.

   Keys are content fingerprints, not physical identities: two
   structurally equal machines hit the same entries, and a machine
   edited between calls misses as it must. *)

type entry = { prediction : Model.prediction; mutable last_use : int }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable store : Store.t option;
  mutable store_hits : int;
  mutable store_misses : int;
}

type stats = {
  hits : int;
  misses : int;
  entries : int;
  capacity : int;
  store_hits : int;
  store_misses : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { capacity;
    table = Hashtbl.create (min capacity 1024);
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    store = None;
    store_hits = 0;
    store_misses = 0 }

(* Canonical machine rendering for fingerprinting. Floats use %h so the
   fingerprint distinguishes every representable value. *)
let machine_fingerprint (m : Machine.t) =
  let b = Buffer.create 256 in
  let vendor =
    match m.vendor with
    | Machine.Intel -> "intel"
    | Machine.Amd -> "amd"
    | Machine.Generic -> "generic"
  in
  Buffer.add_string b
    (Printf.sprintf "%s|%s|%h|%d|%d,%d,%d,%d,%d|" m.name vendor m.freq_ghz
       m.cores m.simd.dp_lanes m.simd.fma_ports m.simd.add_ports
       m.simd.load_ports m.simd.store_ports);
  Array.iter
    (fun (c : Cache_level.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%d,%d,%d,%h,%h,%s;" c.name c.size_bytes c.assoc
           c.line_bytes c.shared_by c.bytes_per_cycle c.latency_cycles
           (match c.fill with
           | Cache_level.Inclusive -> "incl"
           | Cache_level.Victim -> "victim")))
    m.caches;
  Buffer.add_string b
    (Printf.sprintf "|%h|%h|%s" m.mem_bw_chip_gbs m.mem_latency_cycles
       (match m.overlap with
       | Machine.Serial -> "serial"
       | Machine.Overlapping -> "overlap"));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The kernel's behaviourally relevant content is exactly what its
   lowered plan contains — rank, field count, canonical access table and
   the constant-folded body — so the plan fingerprint is the signature.
   Unlike the old [Spec.to_c] digest it is content-addressed: renaming a
   kernel or rewriting its expression into a bit-identical plan shares
   cache entries. *)
let kernel_signature (a : Analysis.t) = Lower.fingerprint a.Analysis.spec

let dims_str dims =
  String.concat "x" (Array.to_list (Array.map string_of_int dims))

(* A key is this prefix followed by [Config.describe config], which
   covers block, fold, wavefront, threads and streaming stores — the
   full config. *)
let key_prefix m a ~dims =
  Printf.sprintf "%s|%s|%s|" (machine_fingerprint m) (kernel_signature a)
    (dims_str dims)

(* Exact text codec for predictions, so spilled entries survive the
   process. Line-oriented; floats render as %h hex (lossless, and
   [float_of_string] reads the "inf" that [lups_saturated] can be).
   The "ecm-pred v1" magic versions the codec independently of the
   store layout: a future field change bumps it and old spills miss
   cleanly instead of misparsing. *)

let condition_str = function
  | Lc.All_fits -> "allfits"
  | Lc.Outer_reuse -> "outer"
  | Lc.Row_reuse -> "row"
  | Lc.No_reuse -> "none"

let condition_of = function
  | "allfits" -> Lc.All_fits
  | "outer" -> Lc.Outer_reuse
  | "row" -> Lc.Row_reuse
  | "none" -> Lc.No_reuse
  | _ -> raise Exit

let prediction_to_string (p : Model.prediction) =
  let b = Buffer.create 512 in
  let f x = Printf.sprintf "%h" x in
  Buffer.add_string b "ecm-pred v1\n";
  Buffer.add_string b ("config " ^ Config.to_string p.config ^ "\n");
  let i = p.incore in
  Buffer.add_string b
    (Printf.sprintf "incore %s %s %s %s %s %d %d %d\n" (f i.Incore.t_ol)
       (f i.Incore.t_nol) (f i.Incore.vector_loads) (f i.Incore.vector_stores)
       (f i.Incore.shuffles) i.Incore.fma i.Incore.adds i.Incore.muls);
  Array.iter
    (fun (bd : Lc.boundary) ->
      (* Level name last: it is the only free-form field, so the fixed
         fields parse by position and the tail re-joins into the name. *)
      Buffer.add_string b
        (Printf.sprintf "boundary %s %s %s %s\n" (condition_str bd.condition)
           (f bd.lines_per_cl) (f bd.bytes_per_lup) bd.level_name))
    p.boundaries;
  Buffer.add_string b
    ("tdata"
    ^ String.concat ""
        (List.map (fun x -> " " ^ f x) (Array.to_list p.t_data))
    ^ "\n");
  Buffer.add_string b
    (Printf.sprintf "scalars %s %s %s %s %s %d %s %s\n" (f p.t_ecm)
       (f p.cy_per_lup) (f p.lups_single) (f p.mem_bytes_per_lup)
       (f p.lups_saturated) p.saturation_cores (f p.lups_chip)
       (f p.flops_chip));
  Buffer.contents b

let prediction_of_string s =
  match String.split_on_char '\n' s |> List.filter (fun l -> l <> "") with
  | magic :: body when magic = "ecm-pred v1" -> (
      try
        let config = ref None
        and incore = ref None
        and boundaries = ref []
        and t_data = ref None
        and scalars = ref None in
        List.iter
          (fun line ->
            match String.index_opt line ' ' with
            | None -> raise Exit
            | Some i -> (
                let tag = String.sub line 0 i in
                let rest =
                  String.sub line (i + 1) (String.length line - i - 1)
                in
                match tag with
                | "config" -> (
                    match Config.of_string rest with
                    | Some c -> config := Some c
                    | None -> raise Exit)
                | "incore" -> (
                    match String.split_on_char ' ' rest with
                    | [ a; b; c; d; e; fma; adds; muls ] ->
                        incore :=
                          Some
                            { Incore.t_ol = float_of_string a;
                              t_nol = float_of_string b;
                              vector_loads = float_of_string c;
                              vector_stores = float_of_string d;
                              shuffles = float_of_string e;
                              fma = int_of_string fma;
                              adds = int_of_string adds;
                              muls = int_of_string muls }
                    | _ -> raise Exit)
                | "boundary" -> (
                    match String.split_on_char ' ' rest with
                    | cond :: lines_cl :: bytes :: (_ :: _ as name) ->
                        boundaries :=
                          { Lc.level_name = String.concat " " name;
                            condition = condition_of cond;
                            lines_per_cl = float_of_string lines_cl;
                            bytes_per_lup = float_of_string bytes }
                          :: !boundaries
                    | _ -> raise Exit)
                | "tdata" ->
                    t_data :=
                      Some
                        (Array.of_list
                           (List.map float_of_string
                              (String.split_on_char ' ' rest)))
                | "scalars" -> (
                    match String.split_on_char ' ' rest with
                    | [ a; b; c; d; e; cores; g; h ] ->
                        scalars :=
                          Some
                            ( float_of_string a, float_of_string b,
                              float_of_string c, float_of_string d,
                              float_of_string e, int_of_string cores,
                              float_of_string g, float_of_string h )
                    | _ -> raise Exit)
                | _ -> raise Exit))
          body;
        match (!config, !incore, !t_data, !scalars) with
        | ( Some config, Some incore, Some t_data,
            Some
              ( t_ecm, cy_per_lup, lups_single, mem_bytes_per_lup,
                lups_saturated, saturation_cores, lups_chip, flops_chip ) ) ->
            Some
              { Model.config;
                incore;
                boundaries = Array.of_list (List.rev !boundaries);
                t_data;
                t_ecm;
                cy_per_lup;
                lups_single;
                mem_bytes_per_lup;
                lups_saturated;
                saturation_cores;
                lups_chip;
                flops_chip }
        | _ -> None
      with Exit | Failure _ -> None)
  | _ -> None

(* Persistent spill: on attach, a memory miss consults the store before
   evaluating the model, and computed predictions are written through.
   Store failures are absorbed by the store itself, so the cache's own
   behaviour (and results) cannot change — only its speed. *)

let store_ns = "ecm-v1"

let attach_store t s =
  Mutex.lock t.mutex;
  t.store <- Some s;
  Mutex.unlock t.mutex

let detach_store t =
  Mutex.lock t.mutex;
  t.store <- None;
  Mutex.unlock t.mutex

(* Evict the least-recently-used entry. Linear scan: eviction only runs
   once the cache is full, and capacity is sized so that is rare. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, age) when age <= e.last_use -> ()
      | _ -> victim := Some (k, e.last_use))
    t.table;
  match !victim with None -> () | Some (k, _) -> Hashtbl.remove t.table k

let insert t k p tick =
  Mutex.lock t.mutex;
  if not (Hashtbl.mem t.table k) && Hashtbl.length t.table >= t.capacity then
    evict_lru t;
  Hashtbl.replace t.table k { prediction = p; last_use = tick };
  Mutex.unlock t.mutex

(* The memoized prediction under key [k]. *)
let lookup t k m a ~dims ~config =
  Mutex.lock t.mutex;
  t.tick <- t.tick + 1;
  let tick = t.tick in
  let store = t.store in
  let cached =
    match Hashtbl.find_opt t.table k with
    | Some e ->
        t.hits <- t.hits + 1;
        e.last_use <- tick;
        Some e.prediction
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.mutex;
  match cached with
  | Some p -> p
  | None -> (
      (* Store lookup and model evaluation both happen outside the lock
         so concurrent misses don't serialise. Two domains missing on
         the same key both compute — harmless, the model is pure and
         the second insert just refreshes the entry. *)
      let warm =
        match store with
        | None -> None
        | Some s -> (
            match Store.get s ~ns:store_ns ~key:k with
            | None -> None
            | Some payload -> prediction_of_string payload)
      in
      match warm with
      | Some p ->
          Mutex.lock t.mutex;
          t.store_hits <- t.store_hits + 1;
          Mutex.unlock t.mutex;
          insert t k p tick;
          p
      | None ->
          (match store with
          | None -> ()
          | Some _ ->
              Mutex.lock t.mutex;
              t.store_misses <- t.store_misses + 1;
              Mutex.unlock t.mutex);
          let p = Model.predict m a ~dims ~config in
          insert t k p tick;
          (* Write-through spill: an undecodable or absent slot is
             repaired by the fresh value. *)
          (match store with
          | None -> ()
          | Some s -> Store.put s ~ns:store_ns ~key:k (prediction_to_string p));
          p)

let predictor t m a ~dims =
  let prefix = key_prefix m a ~dims in
  fun config -> lookup t (prefix ^ Config.describe config) m a ~dims ~config

let predict t m a ~dims ~config = predictor t m a ~dims config

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits;
      misses = t.misses;
      entries = Hashtbl.length t.table;
      capacity = t.capacity;
      store_hits = t.store_hits;
      store_misses = t.store_misses }
  in
  Mutex.unlock t.mutex;
  s

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.store_hits <- 0;
  t.store_misses <- 0;
  Mutex.unlock t.mutex
