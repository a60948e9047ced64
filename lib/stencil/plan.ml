(* The flat kernel-plan IR: what a resolved stencil expression lowers
   to before execution. Layout-independent — binding a plan to concrete
   grids (Lower.bind) is what produces runnable offsets.

   Two body forms:

   - [Groups]: the linear-combination (FMA-chain) form detected for
     sums/differences of constant-scaled sub-sums of accesses — every
     suite stencil and every generated random stencil lands here. The
     grouping mirrors the expression tree exactly (left-leaning chains,
     scale factors applied where the tree applies them), so evaluating
     a group plan is bit-identical to walking the expression tree: the
     only rewrites used are the exact IEEE-754 identities
     [a -. b = a +. (-.b)], [-.(a *. b) = (-.a) *. b], [1.0 *. v = v]
     and [c *. v = v *. c].

   - [Program]: the general fallback — the expression flattened to
     postfix (reverse Polish) code over a small stack. Postfix emission
     preserves the tree's exact operand evaluation order, so this too is
     bit-identical to the expression tree, for any expression including
     divisions.

   Terms reference accesses by {e slot}: an index into the plan's access
   table, which holds the distinct accesses in the canonical order of
   [Analysis.accesses] (sorted, deduplicated). The traced path and the
   sanitizer consume the same table, so every layer that touches grid
   data agrees on what the kernel reads. *)

type term = { coeff : float; slot : int }

type group = { scale : float option; terms : term array }

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

type body =
  | Groups of group array
  | Program of { code : instr array; depth : int }

type t = {
  name : string;
  rank : int;
  n_fields : int;
  accesses : Expr.access array;
  body : body;
  fingerprint : string;
  resolved : bool;
}

let n_slots t = Array.length t.accesses

(* Memoized at construction ([v]); [resolved] sits on hot paths (every
   sweep gate, every ECM lookup), so it must not rescan the body. *)
let resolved_of body =
  match body with
  | Groups _ -> true
  | Program { code; _ } ->
      not (Array.exists (function Sym _ -> true | _ -> false) code)

let resolved t = t.resolved

(* Canonical rendering for fingerprinting. Floats use %h so every
   representable coefficient value is distinguished; the spec's name is
   deliberately excluded — the fingerprint is content-addressed, so two
   identically-shaped kernels share ECM-cache entries. *)
let render b t =
  Buffer.add_string b (Printf.sprintf "r%d|f%d|" t.rank t.n_fields);
  Array.iter
    (fun (a : Expr.access) ->
      Buffer.add_string b (Printf.sprintf "a%d:" a.field);
      Array.iter (fun d -> Buffer.add_string b (Printf.sprintf "%d," d))
        a.offsets;
      Buffer.add_char b ';')
    t.accesses;
  match t.body with
  | Groups gs ->
      Buffer.add_string b "|G";
      Array.iter
        (fun g ->
          Buffer.add_char b '(';
          (match g.scale with
          | None -> Buffer.add_char b '_'
          | Some s -> Buffer.add_string b (Printf.sprintf "%h" s));
          Array.iter
            (fun tm ->
              Buffer.add_string b
                (Printf.sprintf "|%h@%d" tm.coeff tm.slot))
            g.terms;
          Buffer.add_char b ')')
        gs
  | Program { code; _ } ->
      Buffer.add_string b "|P";
      Array.iter
        (fun i ->
          Buffer.add_string b
            (match i with
            | Push c -> Printf.sprintf "c%h;" c
            | Load s -> Printf.sprintf "l%d;" s
            | Sym n -> Printf.sprintf "y%s;" n
            | Neg -> "~;"
            | Add -> "+;"
            | Sub -> "-;"
            | Mul -> "*;"
            | Div -> "/;"
            | Min -> "m;"
            | Max -> "M;"
            | Sel -> "?;"))
        code

let fingerprint_of ~name ~rank ~n_fields ~accesses ~body =
  let t =
    { name; rank; n_fields; accesses; body; fingerprint = "";
      resolved = false }
  in
  let b = Buffer.create 256 in
  render b t;
  Digest.to_hex (Digest.string (Buffer.contents b))

let v ~name ~rank ~n_fields ~accesses ~body =
  { name;
    rank;
    n_fields;
    accesses;
    body;
    fingerprint = fingerprint_of ~name ~rank ~n_fields ~accesses ~body;
    resolved = resolved_of body }

let describe t =
  match t.body with
  | Groups gs ->
      let terms =
        Array.fold_left (fun n g -> n + Array.length g.terms) 0 gs
      in
      Printf.sprintf "%s: groups=%d terms=%d slots=%d fp=%s" t.name
        (Array.length gs) terms (n_slots t)
        (String.sub t.fingerprint 0 8)
  | Program { code; depth } ->
      Printf.sprintf "%s: program=%d depth=%d slots=%d fp=%s" t.name
        (Array.length code) depth (n_slots t)
        (String.sub t.fingerprint 0 8)
