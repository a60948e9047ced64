let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty input")

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* One-pass mean/variance (Welford 1962): numerically stable streaming
   moments, so benchmark loops can fold samples without a second pass. *)
type welford = { mutable w_n : int; mutable w_mean : float; mutable w_m2 : float }

let welford_create () = { w_n = 0; w_mean = 0.0; w_m2 = 0.0 }

let welford_add w x =
  w.w_n <- w.w_n + 1;
  let delta = x -. w.w_mean in
  w.w_mean <- w.w_mean +. (delta /. float_of_int w.w_n);
  w.w_m2 <- w.w_m2 +. (delta *. (x -. w.w_mean))

let welford_mean w =
  if w.w_n = 0 then invalid_arg "Stats.welford_mean: empty accumulator";
  w.w_mean

let welford_variance w =
  if w.w_n = 0 then invalid_arg "Stats.welford_variance: empty accumulator";
  if w.w_n = 1 then 0.0 else w.w_m2 /. float_of_int (w.w_n - 1)

let welford_stddev w = sqrt (welford_variance w)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let percentile a ~p =
  check_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  if n = 1 then b.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    b.(lo) +. (frac *. (b.(hi) -. b.(lo)))
  end

let median a = percentile a ~p:50.0

let mad a =
  check_nonempty "Stats.mad" a;
  let m = median a in
  median (Array.map (fun x -> abs_float (x -. m)) a)

let minimum a =
  check_nonempty "Stats.minimum" a;
  Array.fold_left min a.(0) a

let maximum a =
  check_nonempty "Stats.maximum" a;
  Array.fold_left max a.(0) a

let rel_error ~predicted ~measured =
  if measured = 0.0 then invalid_arg "Stats.rel_error: zero measurement";
  (predicted -. measured) /. measured

let abs_rel_error ~predicted ~measured =
  abs_float (rel_error ~predicted ~measured)

let kendall_tau a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Stats.kendall_tau: length mismatch";
  if n < 2 then invalid_arg "Stats.kendall_tau: need at least two points";
  let concordant = ref 0 and discordant = ref 0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let da = compare a.(i) a.(j) and db = compare b.(i) b.(j) in
      if da * db > 0 then incr concordant
      else if da * db < 0 then incr discordant
    done
  done;
  let pairs = n * (n - 1) / 2 in
  float_of_int (!concordant - !discordant) /. float_of_int pairs

let argbest ~better_is_lower a =
  check_nonempty "Stats.argbest" a;
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    let improves =
      if better_is_lower then a.(i) < a.(!best) else a.(i) > a.(!best)
    in
    if improves then best := i
  done;
  !best

let top1_agrees ~better_is_lower a b =
  argbest ~better_is_lower a = argbest ~better_is_lower b
