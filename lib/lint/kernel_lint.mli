(** Static checks on stencil kernels — the [YS1xx] rule family.

    The rules run over the expression tree (and, for parser-sourced
    kernels, the source spans reported by
    {!Yasksite_stencil.Parser.parse_expr_located}) without compiling or
    executing anything:

    - [YS100] (error): the source does not parse (syntax, axis or rank
      misuse; the caret points at the reported position);
    - [YS101] (error): an input field is declared but never read;
    - [YS102] (warning): the same access appears more than once, so the
      post-CSE load-set accounting diverges from the operation count;
    - [YS103] (error): division by literal zero;
    - [YS104] (hint): division by a symbolic coefficient — resolve it
      before modeling;
    - [YS105] (hint): radius-0 kernel (a point-wise map, not a stencil);
    - [YS106] (warning): asymmetric footprint along the streamed
      dimension, which breaks the symmetric-halo assumption of
      wavefront/temporal blocking;
    - [YS107] (error): the expression reads no field at all. *)

val spec : Yasksite_stencil.Spec.t -> Diagnostic.t list
(** Lint an already-constructed (DSL-built) kernel. Locations are
    {!Diagnostic.No_loc} since there is no source text. *)

val source : rank:int -> string -> Diagnostic.t list
(** Lint a kernel given in the textual syntax. Parse failures become a
    single [YS100] finding; otherwise the semantic rules run with
    caret-span locations. The field count is inferred from the highest
    referenced field, exactly as {!Yasksite_stencil.Parser.parse_spec}
    does. Never raises. *)
