(** Static analysis of a stencil kernel: everything the ECM model and the
    layer-condition machinery need to know without running the code. *)

type shape =
  | Point  (** all accesses at the center *)
  | Star  (** offsets on the axes only (e.g. 3d7pt) *)
  | Box  (** general offsets within the radius box (e.g. 3d27pt) *)

type t = {
  spec : Spec.t;
  accesses : Expr.access list;
      (** distinct accesses in lexicographic order — the post-CSE load
          set: each distinct (field, offset) is loaded once per LUP *)
  radius : int array;  (** per-dimension max |offset| over all accesses *)
  shape : shape;
  adds : int;  (** additive operations (Add/Sub) per LUP *)
  muls : int;
  divs : int;
  flops : int;
      (** adds + muls + divs. All four are counted on the
          constant-folded tree ({!Expr.cfold}), the code a lowered plan
          executes. *)
  loads : int;  (** [List.length accesses] *)
  stores : int;  (** always 1: the output write *)
  read_fields : int list;  (** distinct fields read, ascending *)
}

val of_spec : Spec.t -> t

val halo : t -> int array
(** Ghost-zone width required per dimension (equals [radius]). *)

val accesses_of_field : t -> int -> int array list
(** Distinct offsets at which a given field is read. *)

val min_code_balance : t -> float
(** Bytes per lattice update assuming perfect in-cache reuse: one load
    stream per distinct read field plus write-allocate + write-back for
    the output — the paper's "optimal code balance" B_c in bytes/LUP. *)

val describe : t -> string list
(** One table row: name, rank, shape, radius, flops, loads, balance. *)
