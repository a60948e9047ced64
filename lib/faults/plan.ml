module Prng = Yasksite_util.Prng

type t = {
  seed : int;
  fail_rate : float;
  noise_sigma : float;
  outlier_rate : float;
  outlier_factor : float;
}

let check_rate name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faults.Plan.v: %s must be in [0, 1]" name)

let v ?(seed = 42) ?(fail_rate = 0.0) ?(noise_sigma = 0.0)
    ?(outlier_rate = 0.0) ?(outlier_factor = 3.0) () =
  check_rate "fail_rate" fail_rate;
  check_rate "outlier_rate" outlier_rate;
  if noise_sigma < 0.0 then
    invalid_arg "Faults.Plan.v: noise_sigma must be >= 0";
  if outlier_factor < 1.0 then
    invalid_arg "Faults.Plan.v: outlier_factor must be >= 1";
  { seed; fail_rate; noise_sigma; outlier_rate; outlier_factor }

let none = v ()

let is_benign t =
  t.fail_rate = 0.0 && t.noise_sigma = 0.0 && t.outlier_rate = 0.0

let describe t =
  if is_benign t then "no faults"
  else
    Printf.sprintf "seed=%d fail=%.2f noise=%.3f outlier=%.2f(x%.1f)" t.seed
      t.fail_rate t.noise_sigma t.outlier_rate t.outlier_factor

type outcome =
  | Run of float
  | Transient_failure

type injector = {
  plan : t;
  rng : Prng.t;
  mutable draws : int;
  mutable faults : int;
}

let injector ?rng plan =
  let rng =
    match rng with Some r -> r | None -> Prng.create ~seed:plan.seed
  in
  { plan; rng; draws = 0; faults = 0 }

(* The stream candidate [index] would receive from sequential splitting
   of the plan seed, derived in O(1): concurrent candidates draw their
   faults without sharing a generator, and a candidate's outcomes do
   not depend on how many draws earlier candidates made. *)
let injector_at plan ~index =
  injector ~rng:(Prng.create_indexed ~seed:plan.seed ~index) plan

let draw inj =
  let p = inj.plan in
  inj.draws <- inj.draws + 1;
  if is_benign p then Run 1.0
  else begin
    let u = Prng.float inj.rng in
    if u < p.fail_rate then begin
      inj.faults <- inj.faults + 1;
      Transient_failure
    end
    else begin
      let jitter =
        if p.noise_sigma = 0.0 then 1.0
        else exp (p.noise_sigma *. Prng.gaussian inj.rng)
      in
      let spike =
        if p.outlier_rate > 0.0 && Prng.float inj.rng < p.outlier_rate then
          p.outlier_factor
        else 1.0
      in
      Run (jitter *. spike)
    end
  end

let draws inj = inj.draws

let faults inj = inj.faults
