(** Spans around the library's public calls, for the traced run.

    Recording is off by default; {!with_} then costs one branch. When on,
    every span is kept in memory (name, start, end, enclosing span and op
    id) and written once at the end as Chrome trace-event JSON. Counters
    recorded with {!count} are attributed to the current op the same
    way. The benchmark runs on one domain, so the recorder is a plain
    global. *)

type span = {
  id : int;
  name : string;
  op : int;  (** op id; set-up rounds use negative ids *)
  parent : int;  (** id of the enclosing span, [-1] at the top *)
  start_ns : int64;  (** monotonic clock, nanoseconds *)
  stop_ns : int64;
}

val now_ns : unit -> int64
(** The benchmark's only clock: [CLOCK_MONOTONIC] wall time. *)

val seconds : int64 -> int64 -> float
(** [seconds t0 t1] is [t1 - t0] in seconds. *)

val set_recording : bool -> unit

val set_op : int -> unit
(** Attribute the spans and counters that follow to this op id. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f], recording a span named [name] around it
    when recording is on (also when [f] raises). *)

val count : string -> float -> unit
(** Add to a per-op counter when recording is on. *)

val spans : unit -> span list
(** Recorded spans, oldest first. *)

val self_seconds : span list -> (int * float) list
(** Self time of every span, keyed by id: its duration minus the part
    of its interval that its direct children cover (children clipped to
    the parent, overlaps counted once). *)

val per_op : unit -> (int * (string * float) list) list
(** Totals per op id, in increasing op order: for each span name
    [n], key [n ^ "_s"] holds the summed self seconds of the op's spans
    of that name; each counter name holds its summed values. *)

val to_chrome : span list -> string
(** Chrome trace-event JSON ("X" complete events, microseconds from the
    first span's start); id, parent and op go into each event's args. *)
