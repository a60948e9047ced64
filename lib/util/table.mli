(** ASCII table rendering for experiment output.

    The benchmark harness prints every reconstructed paper table and the
    tabular backing data of every figure through this module, so all
    experiment output is uniform and diff-friendly. *)

type align = Left | Right

type t

val create : ?title:string -> columns:(string * align) list -> unit -> t
(** [create ~columns ()] starts an empty table with the given header. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val render : t -> string
(** Render with box-drawing in plain ASCII. *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a newline. *)

val cell_f : ?prec:int -> float -> string
(** Format a float cell with [prec] decimals (default 2). *)

val cell_pct : float -> string
(** Format a ratio as a percentage cell, e.g. [0.073 -> "7.3%"]. *)
