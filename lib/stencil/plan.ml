(* The flat kernel-plan IR: what a resolved stencil expression lowers
   to before execution. Layout-independent — binding a plan to concrete
   grids (Lower.bind) is what produces runnable offsets.

   The body is the constant-folded expression tree flattened to postfix
   (reverse Polish) code over a small stack, in the tree's own operation
   order, so evaluating it is bit-identical to walking the tree, for any
   expression including divisions.

   Instructions reference accesses by {e slot}: an index into the plan's
   access table, which holds the distinct accesses in the canonical
   order of [Analysis.accesses] (sorted, deduplicated). The traced path
   and the sanitizer consume the same table, so every layer that touches
   grid data agrees on what the kernel reads. *)

type instr =
  | Push of float
  | Load of int
  | Sym of string  (* unresolved coefficient: fingerprintable, not runnable *)
  | Neg
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max
  | Sel  (* pops b, a, c; pushes [if c > 0.0 then a else b] *)

type t = {
  name : string;
  rank : int;
  n_fields : int;
  accesses : Expr.access array;
  code : instr array;
  depth : int;
  fingerprint : string;
  resolved : bool;
}

let n_slots t = Array.length t.accesses

let resolved t = t.resolved

(* Canonical rendering for fingerprinting. Floats use %h so every
   representable coefficient value is distinguished; the spec's name is
   deliberately excluded — the fingerprint is content-addressed, so two
   identically-shaped kernels share ECM-cache entries. The bytes are a
   persisted format: they key store entries and checkpoints. Every ECM
   cache lookup renders a plan, so ints and fixed tokens go straight
   into the buffer and only constants go through [Printf]. *)
let render b ~rank ~n_fields ~accesses ~code =
  let int i = Buffer.add_string b (string_of_int i) in
  Buffer.add_char b 'r';
  int rank;
  Buffer.add_string b "|f";
  int n_fields;
  Buffer.add_char b '|';
  Array.iter
    (fun (a : Expr.access) ->
      Buffer.add_char b 'a';
      int a.field;
      Buffer.add_char b ':';
      Array.iter
        (fun d ->
          int d;
          Buffer.add_char b ',')
        a.offsets;
      Buffer.add_char b ';')
    accesses;
  Buffer.add_string b "|P";
  Array.iter
    (function
      | Push c -> Printf.bprintf b "c%h;" c
      | Load s ->
          Buffer.add_char b 'l';
          int s;
          Buffer.add_char b ';'
      | Sym n ->
          Buffer.add_char b 'y';
          Buffer.add_string b n;
          Buffer.add_char b ';'
      | Neg -> Buffer.add_string b "~;"
      | Add -> Buffer.add_string b "+;"
      | Sub -> Buffer.add_string b "-;"
      | Mul -> Buffer.add_string b "*;"
      | Div -> Buffer.add_string b "/;"
      | Min -> Buffer.add_string b "m;"
      | Max -> Buffer.add_string b "M;"
      | Sel -> Buffer.add_string b "?;")
    code

let v ~name ~rank ~n_fields ~accesses ~code ~depth =
  let b = Buffer.create 256 in
  render b ~rank ~n_fields ~accesses ~code;
  { name;
    rank;
    n_fields;
    accesses;
    code;
    depth;
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents b));
    (* memoized: [resolved] sits on hot paths (every sweep gate, every
       ECM lookup), so it must not rescan the code *)
    resolved = not (Array.exists (function Sym _ -> true | _ -> false) code) }
