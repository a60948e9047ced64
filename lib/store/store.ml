(* On-disk, content-addressed artifact store for what costs more to
   recompute than to read back: compiled kernels, sweep checkpoints and
   Offsite per-kernel configs outlive the process through this module.

   Engineering invariants, in order of importance:

   1. The store must never make a working pipeline fail. Every public
      operation absorbs filesystem errors: an absent, read-only, torn or
      version-mismatched root degrades to in-memory behaviour (gets
      miss, puts drop) with a recorded diagnostic. The only exception
      allowed out is [Yasksite_faults.Io.Crashed], the simulated process
      death of the fault harness.

   2. Commits are atomic and durable: write a uniquely named temp file,
      fsync it, read it back and verify the checksum (catching torn
      writes at commit time, before they can shadow good data), rename
      it over the destination, fsync the directory. A crash between any
      two syscalls leaves the entry at its previous committed value or
      the new one, never torn — the property test in test_store
      enumerates every crash point.

   3. Corruption is contained, not fatal: an entry failing its header or
      checksum check on read is moved to [corrupt/] (quarantined) and
      the query returns a miss, so the caller recomputes and the next
      put repairs the slot.

   4. Roots are shared: entry filenames are content addresses (hex
      digest of the namespace key), so concurrent writers of the same
      key race only at the atomic rename (last writer wins, both values
      are valid), and advisory lock files with dead-pid takeover
      serialise the multi-file operations (gc) across processes.

   Layout under the root:

     VERSION                      schema gate ("yasksite-store v1")
     objects/<ns>/<aa>/<digest>   entries, bucketed by digest prefix
     corrupt/                     quarantined entries
     locks/<name>.lock            advisory locks (content: pid) *)

module Io = Yasksite_faults.Io

(* Version of the on-disk layout. A root whose VERSION names any other
   layout opens fully disabled: old layouts miss cleanly instead of
   mixing. *)
let schema_version = 1

let version_magic = Printf.sprintf "yasksite-store v%d" schema_version

let entry_magic = Printf.sprintf "yasksite-entry v%d" schema_version

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;
  quarantined : int;
  locks_broken : int;
}

type verify_report = { scanned : int; ok : int; bad : int }

type gc_report = {
  scanned : int;
  removed : int;
  kept : int;
  bytes_removed : int;
  bytes_kept : int;
}

type usage = { entries : int; bytes : int; corrupt : int }

type t = {
  root : string;
  io : Io.t;
  disabled : bool;
  writable : bool;
  mutex : Mutex.t;
  mutable tmp_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable quarantined : int;
  mutable locks_broken : int;
  mutable diags : string list;  (* newest first, bounded *)
}

let max_diags = 64

let locked t f = Mutex.protect t.mutex f

let diag t fmt =
  Printf.ksprintf
    (fun msg ->
      locked t (fun () ->
          t.diags <- msg :: (if List.length t.diags >= max_diags then
                               List.filteri (fun i _ -> i < max_diags - 1) t.diags
                             else t.diags)))
    fmt

let diagnostics t = locked t (fun () -> List.rev t.diags)

let root t = t.root

let active t = not t.disabled

let writable t = t.writable && not t.disabled

(* ------------------------------------------------------------------ *)
(* Guarded syscalls                                                    *)

(* Failures injected by the fault plan surface as Unix-flavoured
   exceptions so the degraded-mode handling treats real and injected
   faults through one path. *)
let inject_fail op = function
  | Io.Enospc ->
      raise (Unix.Unix_error (Unix.ENOSPC, Io.op_name op, "injected"))
  | Io.Eio -> raise (Unix.Unix_error (Unix.EIO, Io.op_name op, "injected"))

let guard t op =
  match Io.draw t.io op with
  | Io.Proceed | Io.Torn _ -> ()
  | Io.Fail f -> inject_fail op f
  | Io.Crash -> raise (Io.Crashed { op; at = Io.ops t.io })

let mkdir_p t path =
  let rec make p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      guard t Io.Mkdir;
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make path

let write_all fd s len =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Best-effort directory fsync: refusal (some filesystems return EINVAL
   on directory fds) loses durability of the rename, not atomicity. *)
let fsync_dir_real dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file t path =
  guard t Io.Read;
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | raw -> Some raw
    | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Entry encoding                                                      *)

(* Header fields must stay single-line: tabs and newlines in namespace
   or key would corrupt the framing, so they are mapped to spaces (the
   same hygiene Checkpoint applies to skip reasons). *)
let sanitize s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let checksum payload = Digest.to_hex (Digest.string payload)

let encode ~ns ~key payload =
  Printf.sprintf "%s\t%s\t%s\t%s\t%d\n%s" entry_magic (sanitize ns)
    (sanitize key) (checksum payload) (String.length payload) payload

(* Strict inverse of [encode]: any framing, length or checksum mismatch
   is corruption. *)
let decode raw =
  match String.index_opt raw '\n' with
  | None -> Error "missing header terminator"
  | Some nl -> (
      let header = String.sub raw 0 nl in
      let payload_start = nl + 1 in
      match String.split_on_char '\t' header with
      | [ magic; ns; key; sum; len_s ] -> (
          if magic <> entry_magic then Error "schema magic mismatch"
          else
            match int_of_string_opt len_s with
            | None -> Error "malformed length"
            | Some len ->
                if String.length raw - payload_start <> len then
                  Error "payload length mismatch"
                else
                  let payload = String.sub raw payload_start len in
                  if checksum payload <> sum then Error "checksum mismatch"
                  else Ok (ns, key, payload))
      | _ -> Error "malformed header")

let filename_of_key ~ns ~key = Digest.to_hex (Digest.string (ns ^ "\x00" ^ key))

let entry_dir t ~ns name =
  Filename.concat
    (Filename.concat (Filename.concat t.root "objects") (sanitize ns))
    (String.sub name 0 2)

let entry_path t ~ns ~key =
  let name = filename_of_key ~ns ~key in
  Filename.concat (entry_dir t ~ns name) name

let tmp_prefix = ".tmp-"

let is_tmp name = String.length name >= 1 && name.[0] = '.'

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)

let disabled_store ?(io = Io.real ()) root reason =
  let t =
    { root; io; disabled = true; writable = false; mutex = Mutex.create ();
      tmp_seq = 0; hits = 0; misses = 0; writes = 0; write_errors = 0;
      quarantined = 0; locks_broken = 0; diags = [] }
  in
  diag t "store disabled: %s" reason;
  t

let open_root ?(io = Io.real ()) root =
  let fresh ~disabled ~writable =
    { root; io; disabled; writable; mutex = Mutex.create ();
      tmp_seq = 0; hits = 0; misses = 0; writes = 0; write_errors = 0;
      quarantined = 0; locks_broken = 0; diags = [] }
  in
  let t = fresh ~disabled:false ~writable:true in
  let version_path = Filename.concat root "VERSION" in
  (* Layout + schema gate. Any failure here downgrades rather than
     raising: an unusable root means a disabled (or read-only) store,
     never a broken pipeline. *)
  let initialise () =
    let existing =
      if Sys.file_exists version_path then
        match In_channel.with_open_bin version_path In_channel.input_all with
        | raw -> Some (String.trim raw)
        | exception Sys_error _ -> None
      else None
    in
    match existing with
    | Some v when v = version_magic ->
        (* Adopted as-is; subdirectories are made lazily on write. *)
        `Ready
    | Some v -> `Version_mismatch v
    | None ->
        (* New or torn root: (re)initialise. *)
        mkdir_p t root;
        let fd =
          Unix.openfile version_path
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_all fd (version_magic ^ "\n")
              (String.length version_magic + 1);
            (try Unix.fsync fd with Unix.Unix_error _ -> ()));
        `Ready
  in
  match initialise () with
  | `Ready -> t
  | `Version_mismatch v ->
      (* An old (or future) layout must miss cleanly, not mix: refuse to
         read or write anything under it. *)
      disabled_store ~io root
        (Printf.sprintf
           "schema version mismatch at %s (found %S, need %S); clear the \
            root or point YASKSITE_STORE elsewhere"
           root v version_magic)
  | exception (Io.Crashed _ as e) -> raise e
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      (* Root exists but is not writable: serve reads, drop writes.
         Root absent and uncreatable: fully disabled. *)
      if Sys.file_exists version_path then begin
        let t = fresh ~disabled:false ~writable:false in
        diag t "store read-only: cannot write under %s" root;
        t
      end
      else disabled_store ~io root (Printf.sprintf "cannot initialise %s" root)

let default_root () =
  match Sys.getenv_opt "YASKSITE_STORE" with
  | Some r when r <> "" -> r
  | _ ->
      let home =
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> h
        | _ -> Filename.get_temp_dir_name ()
      in
      Filename.concat (Filename.concat home ".cache") "yasksite"

let store_disabled_by_env () =
  match Sys.getenv_opt "YASKSITE_NO_STORE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let default_cell : t option option ref = ref None

let default_mutex = Mutex.create ()

let default () =
  Mutex.protect default_mutex (fun () ->
      match !default_cell with
      | Some d -> d
      | None ->
          let d =
            if store_disabled_by_env () then None
            else Some (open_root (default_root ()))
          in
          default_cell := Some d;
          d)

let reset_default_for_tests () =
  Mutex.protect default_mutex (fun () -> default_cell := None)

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)

let quarantine t path reason =
  let corrupt_dir = Filename.concat t.root "corrupt" in
  let moved =
    try
      mkdir_p t corrupt_dir;
      let seq = locked t (fun () -> t.tmp_seq <- t.tmp_seq + 1; t.tmp_seq) in
      let dest =
        Filename.concat corrupt_dir
          (Printf.sprintf "%s.%d.%d" (Filename.basename path)
             (Unix.getpid ()) seq)
      in
      guard t Io.Rename;
      Unix.rename path dest;
      true
    with
    | Io.Crashed _ as e -> raise e
    | Unix.Unix_error _ | Sys_error _ | Failure _ -> (
        (* Could not move it aside (read-only root, say): try to unlink,
           else leave it — reads will keep missing on it. *)
        try
          guard t Io.Unlink;
          Unix.unlink path;
          true
        with
        | Io.Crashed _ as e -> raise e
        | _ -> false)
  in
  locked t (fun () -> t.quarantined <- t.quarantined + 1);
  diag t "quarantined %s (%s)%s" path reason
    (if moved then "" else " [could not move]")

(* ------------------------------------------------------------------ *)
(* Get / put                                                           *)

let count_hit t = locked t (fun () -> t.hits <- t.hits + 1)

let count_miss t = locked t (fun () -> t.misses <- t.misses + 1)

let get t ~ns ~key =
  if t.disabled then begin
    count_miss t;
    None
  end
  else begin
    let path = entry_path t ~ns ~key in
    match read_file t path with
    | None ->
        count_miss t;
        None
    | Some raw -> (
        match decode raw with
        | Ok (ns', key', payload)
          when ns' = sanitize ns && key' = sanitize key ->
            count_hit t;
            Some payload
        | Ok _ ->
            (* Valid entry in the wrong slot: a digest collision or a
               mis-filed copy. Treat as corruption of the slot. *)
            quarantine t path "key mismatch";
            count_miss t;
            None
        | Error reason ->
            quarantine t path reason;
            count_miss t;
            None)
    | exception (Io.Crashed _ as e) -> raise e
    | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
        count_miss t;
        None
  end

let put t ~ns ~key payload =
  if t.disabled || not t.writable then begin
    if not t.disabled then
      locked t (fun () -> t.write_errors <- t.write_errors + 1)
  end
  else begin
    let name = filename_of_key ~ns ~key in
    let dir = entry_dir t ~ns name in
    let final = Filename.concat dir name in
    let seq = locked t (fun () -> t.tmp_seq <- t.tmp_seq + 1; t.tmp_seq) in
    let tmp =
      Filename.concat dir
        (Printf.sprintf "%s%s.%d.%d" tmp_prefix name (Unix.getpid ()) seq)
    in
    let cleanup () =
      try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ()
    in
    try
      let data = encode ~ns ~key payload in
      let len = String.length data in
      mkdir_p t dir;
      guard t Io.Open_write;
      let fd =
        Unix.openfile tmp
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o644
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A torn write lands only a prefix but reports success — the
             read-back below is what catches it. *)
          let written =
            match Io.draw t.io Io.Write with
            | Io.Proceed -> len
            | Io.Torn f ->
                max 0 (min len (int_of_float (f *. float_of_int len)))
            | Io.Fail f -> inject_fail Io.Write f
            | Io.Crash ->
                raise (Io.Crashed { op = Io.Write; at = Io.ops t.io })
          in
          write_all fd data written;
          guard t Io.Fsync;
          Unix.fsync fd);
      (* Read-back verification: only a bit-exact temp file may be
         renamed over the previous committed value. This is the line of
         defence against torn writes that do NOT crash — without it a
         truncated temp would be published and shadow good data. *)
      (match read_file t tmp with
      | Some raw when raw = data -> ()
      | _ -> failwith "read-back verification failed");
      guard t Io.Rename;
      Unix.rename tmp final;
      guard t Io.Fsync_dir;
      fsync_dir_real dir;
      locked t (fun () -> t.writes <- t.writes + 1)
    with
    | Io.Crashed _ as e -> raise e
    | Unix.Unix_error _ | Sys_error _ | Failure _ as e ->
        cleanup ();
        locked t (fun () -> t.write_errors <- t.write_errors + 1);
        diag t "write of %s/%s failed: %s" (sanitize ns) name
          (Printexc.to_string e)
  end

let delete t ~ns ~key =
  if t.disabled || not t.writable then false
  else begin
    let path = entry_path t ~ns ~key in
    try
      guard t Io.Unlink;
      Unix.unlink path;
      true
    with
    | Io.Crashed _ as e -> raise e
    | Unix.Unix_error _ | Sys_error _ | Failure _ -> false
  end

(* ------------------------------------------------------------------ *)
(* Advisory locks                                                      *)

let lock_path t name = Filename.concat (Filename.concat t.root "locks") name

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true  (* EPERM: alive, someone else's *)

let try_acquire t path =
  match
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o644
  with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let pid = string_of_int (Unix.getpid ()) ^ "\n" in
          write_all fd pid (String.length pid));
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
      (* Held — or leaked by a dead process. Stale-lock takeover: a lock
         naming a pid that no longer exists is broken and re-raced. *)
      let holder =
        match In_channel.with_open_bin path In_channel.input_all with
        | raw -> int_of_string_opt (String.trim raw)
        | exception Sys_error _ -> None
      in
      match holder with
      | Some pid when pid_alive pid -> false
      | _ ->
          (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
          locked t (fun () -> t.locks_broken <- t.locks_broken + 1);
          diag t "broke stale lock %s (holder %s)" path
            (match holder with
            | Some p -> string_of_int p
            | None -> "unreadable");
          false (* re-race on the next attempt *))
  | exception (Unix.Unix_error _ | Sys_error _) -> false

let with_lock ?(wait_s = 2.0) t ~name f =
  if t.disabled || not t.writable then f ()
  else begin
    let path = lock_path t (sanitize name ^ ".lock") in
    let acquired =
      try
        mkdir_p t (Filename.dirname path);
        let deadline = Unix.gettimeofday () +. wait_s in
        let rec loop () =
          if try_acquire t path then true
          else if Unix.gettimeofday () > deadline then false
          else begin
            Unix.sleepf 0.005;
            loop ()
          end
        in
        loop ()
      with
      | Io.Crashed _ as e -> raise e
      | Unix.Unix_error _ | Sys_error _ | Failure _ -> false
    in
    if not acquired then
      (* Advisory: liveness beats exclusion. Individual commits stay
         atomic regardless, so proceeding can duplicate work but never
         corrupt state. *)
      diag t "lock %s not acquired within %.1fs; proceeding" name wait_s;
    Fun.protect
      ~finally:(fun () ->
        if acquired then
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      f
  end

(* ------------------------------------------------------------------ *)
(* Maintenance: scans, verify, gc, usage                               *)

let list_dir path =
  match Sys.readdir path with
  | entries -> Array.to_list entries
  | exception Sys_error _ -> []

(* All committed entry files as (namespace-dir-name, path) pairs (temp
   files and other dotfiles skipped). [ns] restricts the scan to one
   namespace directory — schema-scoped maintenance never stats the
   others. The directory name is the {e sanitized} namespace, which is
   the namespace itself for every schema the code base uses. *)
let entry_files_ns ?ns t =
  let objects = Filename.concat t.root "objects" in
  let namespaces =
    match ns with Some n -> [ sanitize n ] | None -> list_dir objects
  in
  List.concat_map
    (fun ns ->
      let ns_dir = Filename.concat objects ns in
      List.concat_map
        (fun bucket ->
          let bucket_dir = Filename.concat ns_dir bucket in
          List.filter_map
            (fun name ->
              if is_tmp name then None
              else Some (ns, Filename.concat bucket_dir name))
            (list_dir bucket_dir))
        (list_dir ns_dir))
    namespaces

let entry_files t = List.map snd (entry_files_ns t)

let fold_ns t ~ns ~init f =
  if t.disabled then init
  else
    List.fold_left
      (fun acc (_, path) ->
        match read_file t path with
        | Some raw -> (
            match decode raw with
            | Ok (ns', key, payload) when ns' = sanitize ns ->
                f acc ~key ~payload
            | Ok _ | Error _ -> acc)
        | None -> acc
        | exception (Io.Crashed _ as e) -> raise e
        | exception (Unix.Unix_error _ | Sys_error _ | Failure _) -> acc)
      init
      (entry_files_ns ~ns t)

let verify t =
  if t.disabled then { scanned = 0; ok = 0; bad = 0 }
  else
    with_lock t ~name:"verify" @@ fun () ->
    let scanned = ref 0 and ok = ref 0 and bad = ref 0 in
    List.iter
      (fun path ->
        incr scanned;
        let healthy =
          match read_file t path with
          | Some raw -> (
              match decode raw with
              | Ok (ns, key, _) ->
                  (* The filename is the content address of (ns, key):
                     a mis-filed entry would shadow another slot. *)
                  Filename.basename path = filename_of_key ~ns ~key
              | Error _ -> false)
          | None -> false
          | exception (Io.Crashed _ as e) -> raise e
          | exception (Unix.Unix_error _ | Sys_error _ | Failure _) -> false
        in
        if healthy then incr ok
        else begin
          incr bad;
          quarantine t path "verify: invalid entry"
        end)
      (entry_files t);
    { scanned = !scanned; ok = !ok; bad = !bad }

let file_info path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_mtime, st.Unix.st_size)
  | exception Unix.Unix_error _ -> None

let gc ?ns ?max_age_s ?max_size_bytes t =
  if t.disabled || not t.writable then
    { scanned = 0; removed = 0; kept = 0; bytes_removed = 0; bytes_kept = 0 }
  else
    with_lock t ~name:"gc" @@ fun () ->
    let now = Unix.gettimeofday () in
    let files =
      List.filter_map
        (fun (_, p) ->
          match file_info p with
          | Some (mtime, size) -> Some (p, mtime, size)
          | None -> None)
        (entry_files_ns ?ns t)
    in
    let removed = ref 0 and bytes_removed = ref 0 in
    let remove (p, _, size) =
      try
        guard t Io.Unlink;
        Unix.unlink p;
        incr removed;
        bytes_removed := !bytes_removed + size
      with
      | Io.Crashed _ as e -> raise e
      | Unix.Unix_error _ | Sys_error _ | Failure _ -> ()
    in
    let keep, expired =
      match max_age_s with
      | None -> (files, [])
      | Some age ->
          List.partition (fun (_, mtime, _) -> now -. mtime <= age) files
    in
    List.iter remove expired;
    let keep =
      match max_size_bytes with
      | None -> keep
      | Some budget ->
          (* Evict oldest-first until the surviving bytes fit. *)
          let by_age =
            List.sort (fun (_, a, _) (_, b, _) -> compare b a) keep
          in
          let _, survivors =
            List.fold_left
              (fun (bytes, acc) ((_, _, size) as f) ->
                if bytes + size <= budget then (bytes + size, f :: acc)
                else begin
                  remove f;
                  (bytes, acc)
                end)
              (0, []) by_age
          in
          survivors
    in
    (* Stale temp files from crashed writers age out too. *)
    let tmp_age = 600.0 in
    let objects = Filename.concat t.root "objects" in
    List.iter
      (fun scanned_ns ->
        let ns_dir = Filename.concat objects scanned_ns in
        List.iter
          (fun bucket ->
            let bucket_dir = Filename.concat ns_dir bucket in
            List.iter
              (fun name ->
                if is_tmp name then
                  let p = Filename.concat bucket_dir name in
                  match file_info p with
                  | Some (mtime, _) when now -. mtime > tmp_age -> (
                      try Unix.unlink p
                      with Unix.Unix_error _ | Sys_error _ -> ())
                  | _ -> ())
              (list_dir bucket_dir))
          (list_dir ns_dir))
      (match ns with Some n -> [ sanitize n ] | None -> list_dir objects);
    let bytes_kept =
      List.fold_left (fun acc (_, _, s) -> acc + s) 0 keep
    in
    { scanned = List.length files;
      removed = !removed;
      kept = List.length keep;
      bytes_removed = !bytes_removed;
      bytes_kept }

type ns_usage = { ns : string; ns_entries : int; ns_bytes : int }

let usage_by_ns t =
  if t.disabled then []
  else
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (ns, p) ->
        let sz = match file_info p with Some (_, s) -> s | None -> 0 in
        let entries, bytes =
          match Hashtbl.find_opt tbl ns with
          | Some (e, b) -> (e, b)
          | None -> (0, 0)
        in
        Hashtbl.replace tbl ns (entries + 1, bytes + sz))
      (entry_files_ns t);
    Hashtbl.fold
      (fun ns (ns_entries, ns_bytes) acc -> { ns; ns_entries; ns_bytes } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.ns b.ns)

let usage t =
  if t.disabled then { entries = 0; bytes = 0; corrupt = 0 }
  else begin
    let files = entry_files t in
    let bytes =
      List.fold_left
        (fun acc p ->
          match file_info p with Some (_, s) -> acc + s | None -> acc)
        0 files
    in
    let corrupt =
      List.length
        (List.filter
           (fun n -> not (is_tmp n))
           (list_dir (Filename.concat t.root "corrupt")))
    in
    { entries = List.length files; bytes; corrupt }
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats t =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        writes = t.writes;
        write_errors = t.write_errors;
        quarantined = t.quarantined;
        locks_broken = t.locks_broken })
