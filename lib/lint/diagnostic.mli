(** Diagnostics for the static-analysis passes: a finding with a stable
    rule code, a severity, and an optional location, plus a renderer
    that prints compiler-style caret spans when the linted source text
    is available.

    Rule codes are stable across releases so they can be grepped,
    suppressed, and referenced in documentation: [YS1xx] kernel rules,
    [YS2xx] machine-description rules, [YS3xx] tuning-configuration
    rules (see {!Lint.rules} for the full table). *)

type severity =
  | Error  (** the artifact is unusable; tools exit nonzero *)
  | Warning  (** modeling proceeds but results are likely skewed *)
  | Hint  (** stylistic or resolvable before modeling *)

(** Where a finding points. *)
type loc =
  | No_loc  (** no better location than the artifact as a whole *)
  | Span of { pos : int; stop : int }
      (** [start, stop) byte range in the linted source string *)
  | Line of int  (** 1-based line in a line-oriented file *)
  | Field of string  (** a named field of a structured config *)

type t = { code : string; severity : severity; message : string; loc : loc }

val v : ?loc:loc -> severity -> code:string -> string -> t
(** Build a diagnostic; [loc] defaults to {!No_loc}. *)

val errorf : ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a
(** [errorf ~code fmt ...] is [v Error ~code (sprintf fmt ...)]. *)

val warningf : ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a

val hintf : ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a

val errors : t list -> t list
(** Only the [Error]-severity findings. *)

val has_errors : t list -> bool

val exit_code : t list -> int
(** [1] if any finding is an [Error], else [0] — the process exit
    policy of [yasksite lint]. *)

val summary : t list -> string
(** E.g. ["1 error, 2 warnings, 0 hints"]. *)

val render : ?src:string -> ?origin:string -> t -> string
(** Render one finding as ["origin:line:col: severity[CODE]: message"].
    When [src] (the linted text) is given, {!Span} and {!Line} locations
    additionally print the offending line with a caret run under the
    span. [origin] defaults to ["input"]. *)

val render_list : ?src:string -> ?origin:string -> t list -> string
(** Render a batch: errors first, then warnings, then hints (stable). *)

val rules_to_text : (string * severity * string) list -> string
(** Render a rule table (code, severity, summary — see {!Lint.rules})
    as aligned text, one rule per line. *)

val rules_to_json : (string * severity * string) list -> string
(** Render a rule table as one JSON document:
    [{"version":1,"rules":[{"code","severity","summary"},...]}]. The
    single renderer behind [yasksite lint --rules] in every format. *)

val report_to_json : (string * string option * t) list -> string
(** Render a whole lint run as one JSON document:
    [{"version":1,"findings":[...],"summary":{"errors","warnings",
    "hints"}}]. Each item is [(origin, src, diagnostic)] so findings
    from different inputs can share one report. A finding has the
    stable schema [{"origin","code","severity","message","loc"}];
    [loc] is a tagged object: [{"kind":"none"}],
    [{"kind":"field","field":...}], [{"kind":"line","line":...}] or
    [{"kind":"span","pos","stop"}] — span locations gain 1-based
    ["line"]/["col"] when [src] is given. *)
