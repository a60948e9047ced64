module Grid = Yasksite_grid.Grid
module Plan = Yasksite_stencil.Plan
module Codegen = Yasksite_stencil.Codegen
module Lint = Yasksite_lint.Lint
module D = Yasksite_lint.Diagnostic
module Store = Yasksite_store.Store

(* The build-and-load half of the codegen backend: turn the source
   Stencil.Codegen emits into a running kernel, once per
   (specialization key × compiler) per machine.

   Resolution order for a key: process-local memo table; then the
   persistent store (namespace "kern-v1", compiled bytes keyed by
   specialization key × compiler version × flags); then an
   out-of-process [ocamlfind ocamlopt -shared] compile whose result is
   written through to the store. Every failure mode — no toolchain, no
   native Dynlink, plan rejected by the YS5xx verifier, unsupported
   body, compile or load error, read-only store — degrades to [None]
   (the caller falls back to the plan interpreter) with a single
   warning line per process, mirroring the store's own
   never-fail-a-pipeline contract. Failures are memoized too, so a
   missing toolchain costs one probe, not one probe per region. *)

external named_value : string -> Obj.t option = "yasksite_named_value"

(* Force the stdlib units a generated plugin imports into every
   executable that links the engine: [Dynlink] refuses a unit whose
   imports the host never linked ([Unavailable_unit]), and [Callback]
   in particular has no other engine reference. [Bigarray] and [Array]
   are referenced throughout the engine, but a typed reference here
   keeps the guarantee local instead of incidental. *)
let _force_callback : string -> int -> unit = Callback.register

let _force_bigarray : Codegen.farr -> int -> float = Bigarray.Array1.unsafe_get

let _force_array : int array array -> int -> int array = Array.unsafe_get

type stats = {
  compiles : int;  (** out-of-process compiler invocations *)
  compile_errors : int;
  store_hits : int;  (** kernels revived from the persistent store *)
  loads : int;  (** successful Dynlink loads *)
  load_errors : int;  (** failed loads (corrupt payloads recompile) *)
  fallbacks : int;  (** resolutions that fell back to the interpreter *)
  gate_rejections : int;  (** plans the YS5xx verifier refused *)
  validations : int;  (** YS6xx translation-validator runs *)
  validator_rejections : int;  (** sources the YS6xx validator refused *)
}

let store_ns = "kern-v1"

let mutex = Mutex.create ()

let memo : (string, Codegen.kern_row option) Hashtbl.t = Hashtbl.create 16

let compiles = ref 0
and compile_errors = ref 0
and store_hits = ref 0
and loads = ref 0
and load_errors = ref 0
and fallbacks = ref 0
and gate_rejections = ref 0
and validations = ref 0
and validator_rejections = ref 0

let warned = ref false

(* Test hook: rewrite the emitted source between Codegen.source and the
   translation validator — how the suite injects miscompiles into the
   real resolution path without teaching Codegen to lie. *)
let source_transform : (string -> string) option ref = ref None

let set_source_transform f = Mutex.protect mutex (fun () -> source_transform := f)

(* Persistent backing: [None] until the CLI (or a bench/test) attaches
   one — library use stays hermetic by default. *)
let persistent : Store.t option ref = ref None

let set_store s = Mutex.protect mutex (fun () -> persistent := s)

(* ---- toolchain probe (memoized) ---- *)

let compile_flags = [ "-shared"; "-w"; "-a" ]

(* [Some (compiler_version, flags)] when kernels can be built and
   loaded here; probed once per process (reset by [reset_for_tests]). *)
let toolchain : (string * string list) option option ref = ref None

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run [argv] with stdout+stderr captured to [out_path]. Uses
   [Unix.create_process] (execvp), so the tools are found on [PATH] —
   a process started without them there (the no-toolchain test and
   CI step) simulates a missing compiler. *)
let run_tool argv ~out_path =
  match
    let dev_null = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close dev_null)
      (fun () ->
        let out =
          Unix.openfile out_path
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o600
        in
        Fun.protect
          ~finally:(fun () -> Unix.close out)
          (fun () ->
            let pid = Unix.create_process argv.(0) argv dev_null out out in
            waitpid_retry pid))
  with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "%s exited %d" argv.(0) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s killed by signal %d" argv.(0) n)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" argv.(0) (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let probe () =
  match !toolchain with
  | Some r -> r
  | None ->
      let r =
        if not Dynlink.is_native then None
        else
          match Filename.temp_file "yasksite-probe" ".out" with
          | exception Sys_error _ -> None
          | out -> (
              let res =
                run_tool
                  [| "ocamlfind"; "ocamlopt"; "-version" |]
                  ~out_path:out
              in
              let version =
                match res with
                | Error _ -> None
                | Ok () -> (
                    match read_file out with
                    | None -> None
                    | Some s -> (
                        match String.trim s with "" -> None | v -> Some v))
              in
              (try Sys.remove out with Sys_error _ -> ());
              match version with
              | None -> None
              | Some v -> Some (v, compile_flags))
      in
      toolchain := Some r;
      r

let available () = Mutex.protect mutex (fun () -> probe () <> None)

(* ---- scratch directory for sources and freshly built cmxs ----

   One directory per process, removed with everything in it when the
   process exits. A loaded [.cmxs] stays mapped after its file is
   unlinked, so the kernels keep running until the very end. Only the
   process that made the directory removes it: a forked child exits
   through the same [at_exit] handlers, while its parent may still be
   compiling into the directory. *)

let workdir = ref None

let remove_workdir ~owner d =
  if Unix.getpid () = owner then begin
    (match Sys.readdir d with
    | files ->
        Array.iter
          (fun f ->
            try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          files
    | exception Sys_error _ -> ());
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let get_workdir () =
  match !workdir with
  | Some d -> d
  | None ->
      let owner = Unix.getpid () in
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "yasksite-kern-%d" owner)
      in
      (try Unix.mkdir d 0o700
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      at_exit (fun () -> remove_workdir ~owner d);
      workdir := Some d;
      d

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

(* A successfully (or even partially) dlopened .cmxs stays mapped for
   the life of the process; overwriting it in place would rewrite the
   mapped code pages under any previously loaded kernel. Every load or
   compile attempt therefore writes to a fresh path. *)
let attempt_seq = ref 0

let fresh_base ckey =
  incr attempt_seq;
  Filename.concat (get_workdir ())
    (Printf.sprintf "%s_%d" (Codegen.unit_basename ckey) !attempt_seq)

(* ---- resolution ---- *)

let store_key ~ckey ~version ~flags =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" (ckey :: version :: flags)))

(* ---- kern-v1 payload metadata ----

   Compiled bytes are committed with a four-line header (magic, codegen
   ABI, compiler version, compile flags). The store key already binds
   compiler version and flags, so a stale entry can never shadow a
   current one — the header exists so store-side tooling ([store
   verify], [store gc --stale]) can recognize payloads no toolchain on
   this machine will ever ask for again, without re-deriving every
   specialization key. Headerless payloads from before the header
   existed are stale: resolution recompiles over them, and the scan
   reports them. *)

let payload_magic = "yasksite-kern-payload v1"

let encode_payload ~version ~flags bytes =
  Printf.sprintf "%s\n%d\n%s\n%s\n%s" payload_magic Codegen.abi version
    (String.concat " " flags) bytes

(* [Some (abi, compiler_version, flags_line, bytes)] when [raw] carries
   the header; [None] for legacy raw cmxs bytes. *)
let decode_payload raw =
  let line i =
    match String.index_from_opt raw i '\n' with
    | None -> None
    | Some j -> Some (String.sub raw i (j - i), j + 1)
  in
  match line 0 with
  | Some (m, i) when m = payload_magic -> (
      match line i with
      | None -> None
      | Some (abi, i) -> (
          match line i with
          | None -> None
          | Some (ver, i) -> (
              match line i with
              | None -> None
              | Some (fl, i) ->
                  Some (abi, ver, fl, String.sub raw i (String.length raw - i)))))
  | _ -> None

let payload_stale ~toolchain raw =
  match decode_payload raw with
  | None -> true  (* legacy, headerless *)
  | Some (abi, ver, fl, _) ->
      abi <> string_of_int Codegen.abi
      || (match toolchain with
         | None -> false  (* no compiler here: cannot judge the version *)
         | Some (v, flags) -> ver <> v || fl <> String.concat " " flags)

let toolchain_id () = Mutex.protect mutex (fun () -> probe ())

let stale_kernels s =
  let tc = toolchain_id () in
  List.rev
    (Store.fold_ns s ~ns:store_ns ~init:[] (fun acc ~key ~payload ->
         if payload_stale ~toolchain:tc payload then key :: acc else acc))

let gc_stale s =
  List.fold_left
    (fun n key -> if Store.delete s ~ns:store_ns ~key then n + 1 else n)
    0 (stale_kernels s)

let warn_once reason =
  if not !warned then begin
    warned := true;
    Printf.eprintf
      "yasksite: codegen backend: %s; falling back to the plan interpreter\n%!"
      reason
  end

let load_kern ~path ~name =
  match Dynlink.loadfile_private path with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception Sys_error msg -> Error msg
  | () -> (
      match named_value name with
      | None -> Error "loaded unit registered no kernel"
      | Some o ->
          (* Sound because the registered name embeds [Codegen.abi]: a
             unit of another ABI registers under another name. *)
          Ok (Obj.magic o : Codegen.kern_row))

let compile_fresh ~src ~ckey ~name ~store ~skey ~version ~flags =
  let base = fresh_base ckey in
  let cmxs = base ^ ".cmxs" in
  let ml = base ^ ".ml" in
  write_file ml src;
  incr compiles;
  let argv =
    Array.of_list
      (("ocamlfind" :: "ocamlopt" :: compile_flags) @ [ "-o"; cmxs; ml ])
  in
  match run_tool argv ~out_path:(base ^ ".log") with
  | Error msg ->
      incr compile_errors;
      let detail =
        match read_file (base ^ ".log") with
        | Some log when String.trim log <> "" ->
            let log = String.trim log in
            let log =
              if String.length log > 300 then String.sub log 0 300 else log
            in
            Printf.sprintf " (%s: %s)" msg log
        | _ -> Printf.sprintf " (%s)" msg
      in
      Error ("compilation failed" ^ detail)
  | Ok () -> (
      match load_kern ~path:cmxs ~name with
      | Error e ->
          incr load_errors;
          Error ("load of freshly built kernel failed: " ^ e)
      | Ok k ->
          incr loads;
          (match store with
          | Some s when Store.writable s -> (
              match read_file cmxs with
              | Some bytes ->
                  Store.put s ~ns:store_ns ~key:skey
                    (encode_payload ~version ~flags bytes)
              | None -> ())
          | _ -> ());
          Ok k)

let resolve ~(plan : Plan.t) ~inputs ~output ~v ~ckey =
  if not (Plan.resolved plan) then Error "plan has unresolved coefficients"
  else
    match probe () with
    | None -> Error "ocamlfind or native Dynlink unavailable"
    | Some (version, flags) -> (
        (* The YS5xx dataflow verifier gates emission: no source is
           generated, let alone run, for a plan whose accesses the
           verifier cannot prove in bounds for these grids. *)
        let ds = Lint.Plan.check plan ~inputs ~output in
        if D.has_errors ds then begin
          incr gate_rejections;
          let first =
            match D.errors ds with
            | d :: _ -> Printf.sprintf "%s: %s" d.D.code d.D.message
            | [] -> "unknown"
          in
          Error ("plan verifier rejected the plan (" ^ first ^ ")")
        end
        else
          match Codegen.source ~plan v with
          | Error reason -> Error ("unsupported plan: " ^ reason)
          | Ok src -> (
              let src =
                match !source_transform with None -> src | Some f -> f src
              in
              (* Translation validation (YS6xx): prove the emitted
                 source IS the plan before anything is compiled,
                 revived or loaded. The memo in [kern_for] runs it at
                 most once per key per process. *)
              incr validations;
              match Lint.Native.validate ~plan ~variant:v ~inputs src with
              | Error ds ->
                  incr validator_rejections;
                  let first =
                    match ds with
                    | d :: _ -> Printf.sprintf "%s: %s" d.D.code d.D.message
                    | [] -> "unknown"
                  in
                  Error
                    ("translation validator rejected the emitted kernel ("
                    ^ first ^ ")")
              | Ok () -> (
                  let name = Codegen.callback_name ckey in
                  let store = !persistent in
                  let skey = store_key ~ckey ~version ~flags in
                  let cached =
                    match store with
                    | None -> None
                    | Some s -> Store.get s ~ns:store_ns ~key:skey
                  in
                  let recompile () =
                    compile_fresh ~src ~ckey ~name ~store ~skey ~version
                      ~flags
                  in
                  match Option.map decode_payload cached with
                  | None -> recompile ()
                  | Some (Some (abi, ver, fl, bytes))
                    when abi = string_of_int Codegen.abi
                         && ver = version
                         && fl = String.concat " " flags -> (
                      let cmxs = fresh_base ckey ^ ".cmxs" in
                      write_file cmxs bytes;
                      match load_kern ~path:cmxs ~name with
                      | Ok k ->
                          incr store_hits;
                          incr loads;
                          Ok k
                      | Error _ ->
                          (* A stored payload that no longer loads
                             (corrupt, stale compiler) is recompiled;
                             the write-through repairs the slot. *)
                          incr load_errors;
                          recompile ())
                  | Some _ ->
                      (* A headerless payload, or a header naming another
                         ABI or toolchain in this slot: the entry is
                         stale or mis-filed. Recompile and let the
                         write-through repair it. *)
                      incr load_errors;
                      recompile ())))

let resolve_safe ~plan ~inputs ~output ~v ~ckey =
  match resolve ~plan ~inputs ~output ~v ~ckey with
  | r -> r
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let kern_for ~(plan : Plan.t) ~inputs ~output =
  let v = Codegen.variant_of ~plan ~inputs ~output in
  let ckey = Codegen.key ~plan v in
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt memo ckey with
      | Some (Some _ as hit) -> hit
      | Some None ->
          incr fallbacks;
          None
      | None ->
          let r =
            match resolve_safe ~plan ~inputs ~output ~v ~ckey with
            | Ok k -> Some k
            | Error reason ->
                warn_once reason;
                None
          in
          Hashtbl.replace memo ckey r;
          if r = None then incr fallbacks;
          r)

let stats () =
  Mutex.protect mutex (fun () ->
      { compiles = !compiles;
        compile_errors = !compile_errors;
        store_hits = !store_hits;
        loads = !loads;
        load_errors = !load_errors;
        fallbacks = !fallbacks;
        gate_rejections = !gate_rejections;
        validations = !validations;
        validator_rejections = !validator_rejections })

let reset_for_tests () =
  Mutex.protect mutex (fun () ->
      Hashtbl.reset memo;
      compiles := 0;
      compile_errors := 0;
      store_hits := 0;
      loads := 0;
      load_errors := 0;
      fallbacks := 0;
      gate_rejections := 0;
      validations := 0;
      validator_rejections := 0;
      warned := false;
      toolchain := None;
      source_transform := None;
      persistent := None)
