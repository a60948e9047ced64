type t = {
  name : string;
  s : int;
  a : float array array;
  b : float array;
  c : float array;
  order : int;
}

let v ~name ~a ~b ~c ~order () =
  let s = Array.length b in
  if s = 0 then invalid_arg "Tableau.v: no stages";
  if Array.length a <> s || Array.length c <> s then
    invalid_arg "Tableau.v: dimension mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> s then invalid_arg "Tableau.v: a not square";
      Array.iteri
        (fun j x ->
          if j >= i && x <> 0.0 then
            invalid_arg "Tableau.v: method is not explicit")
        row)
    a;
  { name; s; a; b; c; order }

(* Build a full s x s matrix from ragged strictly-lower rows. *)
let lower s rows =
  Array.init s (fun i ->
      let row = Array.make s 0.0 in
      if i > 0 then begin
        let src = List.nth rows (i - 1) in
        List.iteri (fun j x -> row.(j) <- x) src
      end;
      row)

let euler =
  v ~name:"euler" ~a:(lower 1 []) ~b:[| 1.0 |] ~c:[| 0.0 |] ~order:1 ()

let heun2 =
  v ~name:"heun2" ~a:(lower 2 [ [ 1.0 ] ]) ~b:[| 0.5; 0.5 |] ~c:[| 0.0; 1.0 |]
    ~order:2 ()

let ralston2 =
  v ~name:"ralston2"
    ~a:(lower 2 [ [ 2.0 /. 3.0 ] ])
    ~b:[| 0.25; 0.75 |] ~c:[| 0.0; 2.0 /. 3.0 |] ~order:2 ()

let kutta3 =
  v ~name:"kutta3"
    ~a:(lower 3 [ [ 0.5 ]; [ -1.0; 2.0 ] ])
    ~b:[| 1.0 /. 6.0; 2.0 /. 3.0; 1.0 /. 6.0 |]
    ~c:[| 0.0; 0.5; 1.0 |] ~order:3 ()

let rk4 =
  v ~name:"rk4"
    ~a:(lower 4 [ [ 0.5 ]; [ 0.0; 0.5 ]; [ 0.0; 0.0; 1.0 ] ])
    ~b:[| 1.0 /. 6.0; 1.0 /. 3.0; 1.0 /. 3.0; 1.0 /. 6.0 |]
    ~c:[| 0.0; 0.5; 0.5; 1.0 |] ~order:4 ()

let kutta38 =
  v ~name:"kutta38"
    ~a:
      (lower 4
         [ [ 1.0 /. 3.0 ]; [ -1.0 /. 3.0; 1.0 ]; [ 1.0; -1.0; 1.0 ] ])
    ~b:[| 0.125; 0.375; 0.375; 0.125 |]
    ~c:[| 0.0; 1.0 /. 3.0; 2.0 /. 3.0; 1.0 |]
    ~order:4 ()

let rkf45 =
  v ~name:"rkf45"
    ~a:
      (lower 6
         [ [ 0.25 ];
           [ 3.0 /. 32.0; 9.0 /. 32.0 ];
           [ 1932.0 /. 2197.0; -7200.0 /. 2197.0; 7296.0 /. 2197.0 ];
           [ 439.0 /. 216.0; -8.0; 3680.0 /. 513.0; -845.0 /. 4104.0 ];
           [ -8.0 /. 27.0; 2.0; -3544.0 /. 2565.0; 1859.0 /. 4104.0;
             -11.0 /. 40.0 ] ])
    ~b:
      [| 16.0 /. 135.0; 0.0; 6656.0 /. 12825.0; 28561.0 /. 56430.0;
         -9.0 /. 50.0; 2.0 /. 55.0 |]
    ~c:[| 0.0; 0.25; 0.375; 12.0 /. 13.0; 1.0; 0.5 |]
    ~order:5 ()

let cash_karp =
  v ~name:"cash-karp"
    ~a:
      (lower 6
         [ [ 0.2 ];
           [ 3.0 /. 40.0; 9.0 /. 40.0 ];
           [ 0.3; -0.9; 1.2 ];
           [ -11.0 /. 54.0; 2.5; -70.0 /. 27.0; 35.0 /. 27.0 ];
           [ 1631.0 /. 55296.0; 175.0 /. 512.0; 575.0 /. 13824.0;
             44275.0 /. 110592.0; 253.0 /. 4096.0 ] ])
    ~b:
      [| 37.0 /. 378.0; 0.0; 250.0 /. 621.0; 125.0 /. 594.0; 0.0;
         512.0 /. 1771.0 |]
    ~c:[| 0.0; 0.2; 0.3; 0.6; 1.0; 0.875 |]
    ~order:5 ()

let dopri5 =
  v ~name:"dopri5"
    ~a:
      (lower 7
         [ [ 0.2 ];
           [ 3.0 /. 40.0; 9.0 /. 40.0 ];
           [ 44.0 /. 45.0; -56.0 /. 15.0; 32.0 /. 9.0 ];
           [ 19372.0 /. 6561.0; -25360.0 /. 2187.0; 64448.0 /. 6561.0;
             -212.0 /. 729.0 ];
           [ 9017.0 /. 3168.0; -355.0 /. 33.0; 46732.0 /. 5247.0;
             49.0 /. 176.0; -5103.0 /. 18656.0 ];
           [ 35.0 /. 384.0; 0.0; 500.0 /. 1113.0; 125.0 /. 192.0;
             -2187.0 /. 6784.0; 11.0 /. 84.0 ] ])
    ~b:
      [| 35.0 /. 384.0; 0.0; 500.0 /. 1113.0; 125.0 /. 192.0;
         -2187.0 /. 6784.0; 11.0 /. 84.0; 0.0 |]
    ~c:[| 0.0; 0.2; 0.3; 0.8; 8.0 /. 9.0; 1.0; 1.0 |]
    ~order:5 ()

let all =
  [ euler; heun2; ralston2; kutta3; rk4; kutta38; rkf45; cash_karp; dopri5 ]

let find name = List.find (fun t -> t.name = name) all

(* Gauss-Legendre collocation bases for the PIRK corrector. *)
let gauss_base = function
  | 1 -> ([| [| 0.5 |] |], [| 1.0 |], [| 0.5 |])
  | 2 ->
      let r3 = sqrt 3.0 in
      ( [| [| 0.25; 0.25 -. (r3 /. 6.0) |];
           [| 0.25 +. (r3 /. 6.0); 0.25 |] |],
        [| 0.5; 0.5 |],
        [| 0.5 -. (r3 /. 6.0); 0.5 +. (r3 /. 6.0) |] )
  | _ -> invalid_arg "Tableau.pirk: 1 or 2 base stages supported"

let pirk ~stages ~iterations =
  if iterations < 1 then invalid_arg "Tableau.pirk: iterations must be >= 1";
  let base_a, base_b, base_c = gauss_base stages in
  let s = stages * (iterations + 1) in
  let a = Array.make_matrix s s 0.0 in
  let c = Array.make s 0.0 in
  let b = Array.make s 0.0 in
  for j = 0 to iterations do
    for i = 0 to stages - 1 do
      let row = (j * stages) + i in
      c.(row) <- base_c.(i);
      if j > 0 then
        for l = 0 to stages - 1 do
          a.(row).(((j - 1) * stages) + l) <- base_a.(i).(l)
        done;
      if j = iterations then b.(row) <- base_b.(i)
    done
  done;
  let order = min (2 * stages) (iterations + 1) in
  v ~name:(Printf.sprintf "pirk-s%d-m%d" stages iterations) ~a ~b ~c ~order ()

let weight_check t = abs_float (Array.fold_left ( +. ) 0.0 t.b -. 1.0)

let order_residual t p =
  if p < 1 || p > 4 then
    invalid_arg "Tableau.order_residual: orders 1..4 supported";
  let s = t.s in
  let sum f =
    let acc = ref 0.0 in
    for i = 0 to s - 1 do
      acc := !acc +. f i
    done;
    !acc
  in
  let sum2 f =
    sum (fun i -> sum (fun j -> f i j))
  in
  let sum3 f = sum (fun i -> sum (fun j -> sum (fun k -> f i j k))) in
  let conds =
    [ (1, sum (fun i -> t.b.(i)) -. 1.0);
      (2, sum (fun i -> t.b.(i) *. t.c.(i)) -. 0.5);
      (3, sum (fun i -> t.b.(i) *. t.c.(i) *. t.c.(i)) -. (1.0 /. 3.0));
      (3, sum2 (fun i j -> t.b.(i) *. t.a.(i).(j) *. t.c.(j)) -. (1.0 /. 6.0));
      (4, sum (fun i -> t.b.(i) *. (t.c.(i) ** 3.0)) -. 0.25);
      ( 4,
        sum2 (fun i j -> t.b.(i) *. t.c.(i) *. t.a.(i).(j) *. t.c.(j))
        -. 0.125 );
      ( 4,
        sum2 (fun i j -> t.b.(i) *. t.a.(i).(j) *. t.c.(j) *. t.c.(j))
        -. (1.0 /. 12.0) );
      ( 4,
        sum3 (fun i j k -> t.b.(i) *. t.a.(i).(j) *. t.a.(j).(k) *. t.c.(k))
        -. (1.0 /. 24.0) ) ]
  in
  List.fold_left
    (fun acc (q, residual) -> if q <= p then max acc (abs_float residual) else acc)
    0.0 conds

let stability_polynomial t =
  let s = t.s in
  (* v_k = A^(k-1) * ones; c_k = b . v_k *)
  let coeffs = Array.make (s + 1) 0.0 in
  coeffs.(0) <- 1.0;
  let v = Array.make s 1.0 in
  for k = 1 to s do
    let dot = ref 0.0 in
    for i = 0 to s - 1 do
      dot := !dot +. (t.b.(i) *. v.(i))
    done;
    coeffs.(k) <- !dot;
    if k < s then begin
      let next = Array.make s 0.0 in
      for i = 0 to s - 1 do
        for j = 0 to s - 1 do
          next.(i) <- next.(i) +. (t.a.(i).(j) *. v.(j))
        done
      done;
      Array.blit next 0 v 0 s
    end
  done;
  coeffs

let real_stability_interval t =
  let coeffs = stability_polynomial t in
  let r_at x =
    (* Horner evaluation of R(-x). *)
    let z = -.x in
    let acc = ref 0.0 in
    for k = Array.length coeffs - 1 downto 0 do
      acc := (!acc *. z) +. coeffs.(k)
    done;
    abs_float !acc
  in
  (* Scan outward for the first violation, then bisect. *)
  let step = 0.01 in
  let rec scan x =
    if x > 100.0 then 100.0
    else if r_at x > 1.0 +. 1e-12 then begin
      let rec bisect lo hi n =
        if n = 0 then lo
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if r_at mid > 1.0 +. 1e-12 then bisect lo mid (n - 1)
          else bisect mid hi (n - 1)
        end
      in
      bisect (x -. step) x 40
    end
    else scan (x +. step)
  in
  scan step
