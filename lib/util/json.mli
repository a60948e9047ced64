(** The one JSON emitter behind every machine-readable output: lint
    reports, [--stats-json] lines, [store ... --json] and the bench
    records. Producers build a {!t}; string escaping, number format
    and layout are decided here only. Emit-only: there is no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Finite values print as JSON numbers in [%g] style with the
          fewest significant digits, from 15 up to 17, that read back
          exactly; [nan] and the infinities print as [null]. *)
  | String of string
      (** Bytes pass through unchanged, so UTF-8 stays UTF-8. Only
          the double quote, the backslash, newline, carriage return and
          tab get their two-character escapes; other bytes below 0x20
          become {v \u00XX v}. *)
  | List of t list
  | Obj of (string * t) list  (** members in the given order *)

val to_string : t -> string
(** Compact: one line, no whitespace between tokens. *)

val to_string_rows : t -> string
(** Compact, except that every array directly inside the top-level
    value puts each element on a line of its own, indented two spaces,
    with its closing bracket on a fresh line: the frame of the lint
    reports, which keeps one finding per line for line-based diffs. *)

val to_string_indented : t -> string
(** The layout of the bench records: non-empty objects put one member
    per line, indented two spaces per level, with a colon and a space
    after each key; arrays do the same when any element is an array or
    object, and otherwise stay on one line as [[a, b, c]]. No trailing
    newline. *)
