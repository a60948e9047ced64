module Stats = Yasksite_util.Stats
module Prng = Yasksite_util.Prng

type t = {
  max_attempts : int;
  pass_budget_s : float;
  repeats : int;
}

let v ?(max_attempts = 3) ?(pass_budget_s = infinity) ?(repeats = 1) () =
  if max_attempts < 1 then
    invalid_arg "Faults.Policy.v: max_attempts must be >= 1";
  if pass_budget_s <= 0.0 then
    invalid_arg "Faults.Policy.v: pass_budget_s must be positive";
  if repeats < 1 then invalid_arg "Faults.Policy.v: repeats must be >= 1";
  { max_attempts; pass_budget_s; repeats }

let default = v ()

let base_backoff_s = 0.05

let max_backoff_s = 5.0

let mad_threshold = 3.5

let degrade_threshold = 0.5

(* Decorrelated jitter (Brooker, "Exponential Backoff And Jitter"): each
   delay is uniform in [base, 3 * previous], capped. *)
let backoff ~rng ~prev =
  let hi = Float.max base_backoff_s (3.0 *. prev) in
  Float.min max_backoff_s (Prng.float_range rng ~lo:base_backoff_s ~hi)

let robust_combine samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Faults.Policy.robust_combine: no samples";
  if n = 1 then samples.(0)
  else begin
    let med = Stats.median samples in
    let mad = Stats.mad samples in
    if mad = 0.0 then med
    else begin
      (* 1.4826 rescales the raw MAD to a normal-consistent sigma. *)
      let cutoff = mad_threshold *. 1.4826 *. mad in
      let kept =
        Array.of_list
          (List.filter
             (fun x -> abs_float (x -. med) <= cutoff)
             (Array.to_list samples))
      in
      if Array.length kept = 0 then med else Stats.median kept
    end
  end
