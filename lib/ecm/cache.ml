module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Analysis = Yasksite_stencil.Analysis
module Lower = Yasksite_stencil.Lower

(* Memoization of [Model.predict]. The model is pure — its output is a
   function of the machine, the kernel, the grid size and the config —
   so repeated rankings (Offsite scoring many variants on one machine,
   a tuner re-ranking after a resume) can reuse earlier evaluations.

   Keys are content fingerprints, not physical identities: two
   structurally equal machines hit the same entries, and a machine
   edited between calls misses as it must. *)

type t = {
  table : (string, Model.prediction) Hashtbl.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = {
  hits : int;
  misses : int;
  entries : int;
}

let create () =
  { table = Hashtbl.create 1024; mutex = Mutex.create (); hits = 0; misses = 0 }

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
   cache entries. Sharing is exact because [Analysis] counts ops on that
   same folded body, so specs with one plan get one prediction. *)
let kernel_signature (a : Analysis.t) = Lower.fingerprint a.Analysis.spec

let dims_str dims =
  String.concat "x" (Array.to_list (Array.map string_of_int dims))

(* The memoized prediction under key [k]. *)
let lookup t k m a ~dims ~config =
  Mutex.lock t.mutex;
  let cached = Hashtbl.find_opt t.table k in
  (match cached with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.mutex;
  match cached with
  | Some p -> p
  | None ->
      (* Model evaluation happens outside the lock so concurrent misses
         don't serialise. Two domains missing on the same key both
         compute — harmless, the model is pure and the second insert
         just refreshes the entry. *)
      let p = Model.predict m a ~dims ~config in
      Mutex.protect t.mutex (fun () -> Hashtbl.replace t.table k p);
      p

(* A key is the machine digest, the kernel signature and the dims,
   followed by [Config.describe config], which covers block, fold,
   wavefront, threads and streaming stores — the full config. The
   machine is digested once per [on_machine t m], and the kernel and
   dims once per further application to them, whatever the number of
   configs looked up after. *)
let on_machine t m =
  let machine = machine_fingerprint m in
  fun a ~dims ->
    let prefix =
      Printf.sprintf "%s|%s|%s|" machine (kernel_signature a) (dims_str dims)
    in
    fun config -> lookup t (prefix ^ Config.describe config) m a ~dims ~config

let predictor t m a ~dims = on_machine t m a ~dims

let predict t m a ~dims ~config = on_machine t m a ~dims config

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table }
  in
  Mutex.unlock t.mutex;
  s

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
