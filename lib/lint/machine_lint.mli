(** Static checks on machine descriptions — the [YS2xx] rule family.

    The textual entry points work on the {e raw} key/value sections (via
    {!Yasksite_arch.Machine_file.parse_raw}) so that defects which
    {!Yasksite_arch.Machine.v} would reject outright — the very things
    worth diagnosing — still produce located findings instead of a bare
    exception:

    - [YS200] (error): the file does not parse, a required key is
      missing or malformed, or an enum value is unknown;
    - [YS201] (error): cache capacities shrink outward (L2 smaller than
      L1, ...) — the hierarchy is non-monotone;
    - [YS202] (error): a bandwidth is zero or negative;
    - [YS203] (error): a latency is zero or negative;
    - [YS204] (warning): cache line size and the SIMD vector fold are
      mutually misaligned (neither divides the other), so folded
      vectors straddle line boundaries;
    - [YS205] (error): no [\[cache\]] sections — an empty hierarchy;
    - [YS206] (warning): latencies do not increase outward;
    - [YS207] (error): non-positive or inconsistent geometry (core
      counts, set counts, per-level line sizes);
    - [YS208] (warning): a key is given twice in one section (the last
      value silently wins). *)

val source : string -> Diagnostic.t list
(** Lint the text of a [*.machine] file. Findings carry
    {!Diagnostic.Line} locations so {!Diagnostic.render} can underline
    the offending line. Never raises. *)

val file : string -> Diagnostic.t list
(** [file path] reads and lints a [*.machine] file; an unreadable path
    becomes a single [YS200] finding. Never raises. *)

val machine : Yasksite_arch.Machine.t -> Diagnostic.t list
(** Lint an already-constructed machine (presets, DSL-built values).
    Only the rules not already enforced by the validating constructors
    remain observable: [YS203], [YS204] and [YS206], with
    {!Diagnostic.Field} locations. Used by tests only: the built-in
    presets must lint clean. *)
