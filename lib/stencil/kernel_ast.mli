(** The checked kernel AST: concrete syntax of the units {!Codegen}
    emits, with a parser and printer over exactly that grammar.

    {!Codegen.source} produces one small shape — a [farr] type alias,
    a [kern_row] whose body is prelude bindings plus an output loop
    that [let]-binds the plan's temporaries, in order, and stores a
    float expression of unsafe loads and temporaries with every
    operation in its own parentheses, and a
    [Callback.register] — by building an AST and printing it with
    {!print}; {!parse} accepts precisely the emitted forms (hex-float
    literals, dotted stdlib paths, both output-loop modes) and nothing
    more, so [parse (print ~header ast) = Ok ast].

    Syntax lives here; judgment lives elsewhere: the YS6xx translation
    validator ({!Yasksite_lint.Native_lint}) compares parsed ASTs
    against the plan IR, and the seeded miscompile injector
    ({!Yasksite_faults.Miscompile}) mutates them structurally — both
    share this one grammar without a dependency cycle. *)

type binop = Add | Sub | Mul | Div

type addr =
  | Unit_addr of { data : int; row : int; shift : int }
      (** [d<data>.(r<row> + x + shift)] — unit-stride grid *)
  | Tab_addr of { data : int; row : int; tab : int; shift : int }
      (** [d<data>.(r<row> + t<tab>.(x + shift))] — folded layout *)

type expr =
  | Lit of float
  | Get of addr
  | Neg of expr
  | Bin of binop * expr * expr
  | Fmin of expr * expr  (** [(Float.min a b)] *)
  | Fmax of expr * expr  (** [(Float.max a b)] *)
  | Sel of expr * expr * expr
      (** [(if c > 0.0 then a else b)] — the emitted compare-select;
          the comparison literal is always exactly [+0.0] *)
  | Temp of int
      (** [v<n>]: temporary [n], bound by a [let] of {!field-row_lets} *)

type bind =
  | Bind_data of { name : int; src : int }
      (** [let d<name> = slot_data.(src)] *)
  | Bind_tab of { name : int; src : int }
      (** [let t<name> = slot_tab.(src)] *)
  | Bind_row of { name : int; src : int }  (** [let r<name> = row.(src)] *)

type out_addr =
  | Out_unit of { lp : int }  (** running flat offset, unit-stride output *)
  | Out_tab of { lp : int }  (** per-point [out_tab] lookup *)

type unit_ast = {
  row_binds : bind list;
  row_out : out_addr;
  row_lets : (int * expr) list;
      (** [let v<n> = e in], in order, at the top of the output loop
          (empty for a plan without temporaries) *)
  row_expr : expr;
  reg_name : string;  (** the [Callback.register] name *)
}

val parse : string -> (unit_ast, string * int) result
(** Parse an emitted kernel unit. [Error (reason, line)] when the
    source deviates from the generated grammar in any way. *)

val print : header:string -> unit_ast -> string
(** Emit an AST as a unit whose leading comment reads [header]: how
    {!Codegen.source} writes every kernel, and how the miscompile
    injector writes its mutants. [parse (print ~header ast) = Ok ast]
    for every AST {!parse} returns. *)

val expr_str : expr -> string
(** One expression in emitted syntax (diagnostic rendering). *)
