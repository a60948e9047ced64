(** Parser for the textual stencil language — the inverse of
    {!Expr.to_c}, so kernels can be given to the CLI as strings.

    Grammar (precedence climbing, left-associative):

    {v
      expr   ::= term (('+' | '-') term)*
      term   ::= unary (('*' | '/') unary)*
      unary  ::= '-' unary | atom
      atom   ::= number | name | access | call | '(' expr ')'
      access ::= field '(' coord (',' coord)* ')'
      call   ::= ('min' | 'max') '(' expr ',' expr ')'
               | 'select' '(' expr ',' expr ',' expr ')'
      coord  ::= axis (('+' | '-') digits)? | '-'? digits
    v}

    Axis names map to dimensions by rank: rank 3 uses [z,y,x], rank 2
    [y,x], rank 1 [x] (the convention {!Expr.to_c} prints). A field is
    either the [f<digits>] convention or a name from [?fields]. A bare
    name that is neither is a symbolic coefficient. [min]/[max]/[select]
    are reserved builtins ([select cond a b] = [if cond > 0 then a else
    b], all operands evaluated); calling one with the wrong number of
    arguments is a parse error located at the call. *)

val parse_expr :
  ?fields:(string * int) list -> rank:int -> string -> (Expr.t, string) result
(** Parse an expression; errors carry a position and a description
    (formatted ["at <pos>: <message>"]). *)

type located = {
  expr : Expr.t;
  refs : (Expr.access * (int * int)) list;
      (** every field reference with its [start, stop) source span, in
          left-to-right source order (the same order
          {!Expr.fold_accesses} visits them) *)
  divisors : (Expr.t * (int * int)) list;
      (** the right-hand side of every division with its span *)
}

val parse_expr_located :
  ?fields:(string * int) list ->
  rank:int ->
  string ->
  (located, int * string) result
(** Like {!parse_expr} but additionally reports the source spans of
    field references and divisor subexpressions, and returns errors as a
    structured [(position, message)] pair. Every failure path carries a
    usable position: errors at end of input report [String.length src].
    The lint layer builds caret diagnostics from these spans. *)

val parse_spec :
  name:string -> rank:int -> string -> (Spec.t, string) result
(** Parse and validate a whole kernel ([Spec.v] errors are reported as
    [Error]). The field count is one more than the highest referenced
    field. *)
