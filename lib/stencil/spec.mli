(** A stencil kernel specification: the unit YaskSite tunes.

    One sweep of the kernel reads [n_fields] input grids and writes one
    output grid; at every interior point of the output, {!expr} is
    evaluated with accesses interpreted relative to that point. *)

type t = private {
  name : string;
  rank : int;  (** 1..3 *)
  n_fields : int;  (** number of input fields (>= 1) *)
  expr : Expr.t;
}

val v : name:string -> rank:int -> ?n_fields:int -> Expr.t -> t
(** Validating constructor. Checks: rank 1..3; every access has matching
    rank and a field index within [n_fields] (default 1); the expression
    contains at least one access. Raises [Invalid_argument] otherwise. *)

val with_name : t -> string -> t

val resolve : t -> (string * float) list -> t
(** Substitute named coefficients; remaining names stay symbolic. *)

val to_c : t -> string
(** Render the kernel as the C loop nest YASK's scalar fallback would
    emit — for display and documentation. *)
