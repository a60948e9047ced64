type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }

(* The state of the (index+1)-th split of [create ~seed], computed
   directly: the parent's k-th raw output is mix(seed + k*gamma), so
   indexed generators can be derived in O(1) from any position — the
   key to giving each parallel tuning candidate the same stream it
   would have received from sequential splitting. *)
let create_indexed ~seed ~index =
  if index < 0 then invalid_arg "Prng.create_indexed: negative index";
  { state =
      mix
        (Int64.add (Int64.of_int seed)
           (Int64.mul golden_gamma (Int64.of_int (index + 1)))) }

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 t) mask) in
  v mod bound

let float t =
  let v = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let float_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t =
  (* Box–Muller; [1 - float] keeps the log argument in (0, 1]. *)
  let u1 = 1.0 -. float t in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
