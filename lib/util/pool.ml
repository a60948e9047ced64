(* A reusable pool of worker domains. Workers are spawned lazily on the
   first parallel call and then parked in [Condition.wait] between jobs,
   so repeated parallel sections (a tuning sweep's thousands of model
   evaluations, every block row of a sweep) pay the spawn cost once.

   Scheduling is chunked self-service: a job publishes an atomic cursor
   over its index space and every participant — the caller's domain
   included — repeatedly claims the next chunk until the space is
   exhausted. Exceptions raised by the work function are captured
   (first one wins), the remaining chunks are abandoned, and the
   exception is re-raised in the caller with its backtrace once all
   participants have quiesced, leaving the pool reusable. *)

type t = {
  domains : int; (* total participants, including the calling domain *)
  submit : Mutex.t; (* held for a whole job; serialises submitters *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable epoch : int; (* bumped once per job; wakes the workers *)
  mutable unfinished : int; (* workers still inside the current job *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list; (* spawned lazily, length domains-1 *)
}

(* Work functions may themselves call into pool operations (a parallel
   tuner measuring candidates whose sweeps are pool-aware). A nested
   parallel section executed by any domain that is already inside a
   job — a worker, or the caller while it runs its own share of the
   job — must not wait for the pool (the workers are all busy running
   the outer job), so it runs its chunks inline instead. Workers set
   this flag once at spawn; the submitting domain sets it around the
   job body in [run_job]. *)
let in_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let create ?(domains = Domain.recommended_domain_count ()) () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { domains;
    submit = Mutex.create ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    job = None;
    epoch = 0;
    unfinished = 0;
    shutdown = false;
    workers = [] }

let size t = t.domains

let rec worker_loop t seen_epoch =
  Mutex.lock t.mutex;
  while (not t.shutdown) && t.epoch = seen_epoch do
    Condition.wait t.cond t.mutex
  done;
  if t.shutdown then Mutex.unlock t.mutex
  else begin
    let epoch = t.epoch in
    let job = match t.job with Some j -> j | None -> fun () -> () in
    Mutex.unlock t.mutex;
    (* Jobs are wrapped by [run_job] and never raise. *)
    job ();
    Mutex.lock t.mutex;
    t.unfinished <- t.unfinished - 1;
    if t.unfinished = 0 then Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    worker_loop t epoch
  end

let ensure_spawned t =
  if t.workers = [] && t.domains > 1 then
    t.workers <-
      List.init (t.domains - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_job true;
              worker_loop t 0))

(* Run [body] on every participant and wait for all of them. [body] must
   be safe to run concurrently with itself and must not raise (the
   parallel drivers below guarantee both). *)
let run_job t body =
  if t.domains = 1 || Domain.DLS.get in_job then body ()
  else begin
    (* [t.submit] is held for the whole job so that a second domain
       submitting concurrently waits for this job to finish instead of
       overwriting [job]/[unfinished]/[epoch] mid-flight. Nested
       sections never reach this lock: every participant, the caller
       included, has [in_job] set and runs them inline above. *)
    Mutex.lock t.submit;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.submit)
      (fun () ->
        Mutex.lock t.mutex;
        if t.shutdown then begin
          Mutex.unlock t.mutex;
          invalid_arg "Pool: used after shutdown"
        end;
        ensure_spawned t;
        t.job <- Some body;
        t.unfinished <- t.domains - 1;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        Domain.DLS.set in_job true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set in_job false)
          body;
        Mutex.lock t.mutex;
        while t.unfinished > 0 do
          Condition.wait t.cond t.mutex
        done;
        t.job <- None;
        Mutex.unlock t.mutex)
  end

let parallel_for ?chunk t ~n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative count";
  if n > 0 then begin
    if t.domains = 1 || n = 1 || Domain.DLS.get in_job then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let chunk =
        match chunk with
        | Some c ->
            if c < 1 then invalid_arg "Pool.parallel_for: chunk must be >= 1";
            c
        | None ->
            (* Small enough for load balance, large enough that the
               atomic claim is amortised. *)
            max 1 (n / (t.domains * 4))
      in
      let next = Atomic.make 0 in
      let failed = Atomic.make None in
      let body () =
        let continue = ref true in
        while !continue do
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= n || Atomic.get failed <> None then continue := false
          else begin
            let hi = min n (lo + chunk) in
            try
              for i = lo to hi - 1 do
                f i
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt)))
          end
        done
      in
      run_job t body;
      match Atomic.get failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_map_array ?chunk t a ~f =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?chunk t ~n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map (function Some x -> x | None -> assert false) out
  end

let parallel_map ?chunk t l ~f =
  Array.to_list (parallel_map_array ?chunk t (Array.of_list l) ~f)

let shutdown t =
  Mutex.lock t.mutex;
  if not t.shutdown then begin
    t.shutdown <- true;
    Condition.broadcast t.cond
  end;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One shared pool for callers that do not manage their own (CLI paths
   without --domains, the micro-benches). Created on first use at the
   runtime's recommended width; never shut down — parked workers cost
   nothing and die with the process. *)
let shared_pool = ref None

let shared_mutex = Mutex.create ()

let shared () =
  Mutex.lock shared_mutex;
  let t =
    match !shared_pool with
    | Some t -> t
    | None ->
        let t = create () in
        shared_pool := Some t;
        t
  in
  Mutex.unlock shared_mutex;
  t
