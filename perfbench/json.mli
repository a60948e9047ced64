(** Just enough JSON output for the result line, the run metadata and
    the trace file. *)

type t =
  | Num of float  (** written with all 17 significant digits; non-finite as [null] *)
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
