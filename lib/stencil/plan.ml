(* The flat kernel-plan IR: what a resolved stencil expression lowers
   to before execution. Layout-independent — binding a plan to concrete
   grids (Lower.bind) is what produces runnable offsets.

   The body is the constant-folded expression tree flattened to postfix
   (reverse Polish) code over a small stack, in the tree's own operation
   order, so evaluating it is bit-identical to walking the tree, for any
   expression including divisions. A subtree the tree holds more than
   once is computed once: [Save t] keeps the top of the stack in
   temporary [t], and [Recall t] pushes it again where the subtree
   recurs. Every operation still gets the operands it gets in the tree.

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
  | Save of int  (* top of the stack -> temporary t; the stack is unchanged *)
  | Recall of int  (* push temporary t *)

type t = {
  name : string;
  rank : int;
  n_fields : int;
  accesses : Expr.access array;
  code : instr array;
  depth : int;
  temps : int;
  fingerprint : string;
  resolved : bool;
}

let pops = function
  | Push _ | Load _ | Sym _ | Recall _ -> 0
  | Neg | Save _ -> 1
  | Add | Sub | Mul | Div | Min | Max -> 2
  | Sel -> 3

let n_slots t = Array.length t.accesses

let resolved t = t.resolved

let has_temps = Array.exists (function Save _ | Recall _ -> true | _ -> false)

(* Canonical rendering for fingerprinting. Floats use %h so every
   representable coefficient value is distinguished; the spec's name is
   deliberately excluded — the fingerprint is content-addressed, so two
   identically-shaped kernels share ECM-cache entries. The bytes are a
   persisted format: they key store entries and checkpoints. Every ECM
   cache lookup renders a plan, so ints and fixed tokens go straight
   into the buffer and only constants go through [Printf]. *)
let render_instr b i =
  let int i = Buffer.add_string b (string_of_int i) in
  let tok c n =
    Buffer.add_char b c;
    int n;
    Buffer.add_char b ';'
  in
  match i with
  | Push c -> Printf.bprintf b "c%h;" c
  | Load s -> tok 'l' s
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
  | Sel -> Buffer.add_string b "?;"
  | Save t -> tok 's' t
  | Recall t -> tok 't' t

(* The code rendered as the tree it computes: a [Save] renders nothing
   and a [Recall] renders the bytes of the subtree its [Save] captured.
   [starts] holds, per stack entry, the offset its subtree's rendering
   starts at; an operand's rendering directly precedes the next one's,
   so an operation's subtree starts where its deepest operand's does.
   Malformed code (underflow, a recall of nothing saved) still renders,
   as the literal tokens, so that the verifiers can report it. *)
let render_tree b code =
  let saved = Hashtbl.create 8 in
  let starts = ref [] in
  Array.iter
    (fun i ->
      let at = Buffer.length b in
      match i with
      | Save t -> (
          match !starts with
          | s :: _ -> Hashtbl.replace saved t (Buffer.sub b s (at - s))
          | [] -> render_instr b i)
      | Recall t ->
          (match Hashtbl.find_opt saved t with
          | Some r -> Buffer.add_string b r
          | None -> render_instr b i);
          starts := at :: !starts
      | i ->
          render_instr b i;
          let rec drop n l s =
            match l with
            | x :: rest when n > 0 -> drop (n - 1) rest x
            | l -> (s, l)
          in
          let s, rest = drop (pops i) !starts at in
          starts := s :: rest)
    code

let render b ~rank ~n_fields ~accesses ~code ~tree =
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
  if tree && has_temps code then render_tree b code
  else Array.iter (render_instr b) code

let digest ~rank ~n_fields ~accesses ~code ~tree =
  let b = Buffer.create 256 in
  render b ~rank ~n_fields ~accesses ~code ~tree;
  Digest.to_hex (Digest.string (Buffer.contents b))

let code_digest t =
  if not (has_temps t.code) then t.fingerprint
  else
    digest ~rank:t.rank ~n_fields:t.n_fields ~accesses:t.accesses
      ~code:t.code ~tree:false

let v ~name ~rank ~n_fields ~accesses ~code ~depth ~temps =
  { name;
    rank;
    n_fields;
    accesses;
    code;
    depth;
    temps;
    fingerprint = digest ~rank ~n_fields ~accesses ~code ~tree:true;
    (* memoized: [resolved] sits on hot paths (every sweep gate, every
       ECM lookup), so it must not rescan the code *)
    resolved = not (Array.exists (function Sym _ -> true | _ -> false) code) }
