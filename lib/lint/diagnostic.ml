type severity = Error | Warning | Hint

type loc =
  | No_loc
  | Span of { pos : int; stop : int }
  | Line of int
  | Field of string

type t = { code : string; severity : severity; message : string; loc : loc }

let v ?(loc = No_loc) severity ~code message = { code; severity; message; loc }

let errorf ?loc ~code fmt = Printf.ksprintf (v ?loc Error ~code) fmt

let warningf ?loc ~code fmt = Printf.ksprintf (v ?loc Warning ~code) fmt

let hintf ?loc ~code fmt = Printf.ksprintf (v ?loc Hint ~code) fmt

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let is_error d = d.severity = Error

let errors ds = List.filter is_error ds

let has_errors ds = List.exists is_error ds

let exit_code ds = if has_errors ds then 1 else 0

let by_severity ds =
  List.stable_sort
    (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
    ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let summary ds =
  let part n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  String.concat ", "
    [ part (count Error ds) "error";
      part (count Warning ds) "warning";
      part (count Hint ds) "hint" ]

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Split [src] and locate the line containing byte offset [pos].
   Returns (1-based line number, 0-based column, the line's text). *)
let line_of_pos src pos =
  let pos = max 0 (min pos (String.length src)) in
  let rec start i = if i > 0 && src.[i - 1] <> '\n' then start (i - 1) else i in
  let rec stop i =
    if i < String.length src && src.[i] <> '\n' then stop (i + 1) else i
  in
  let a = start pos and b = stop pos in
  let lineno =
    1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
          (String.sub src 0 a)
  in
  (lineno, pos - a, String.sub src a (b - a))

let nth_line src n =
  match List.nth_opt (String.split_on_char '\n' src) (n - 1) with
  | Some l -> l
  | None -> ""

let caret_line ~col ~len =
  String.make col ' ' ^ String.make (max 1 len) '^'

let render ?src ?(origin = "input") d =
  let buf = Buffer.create 128 in
  let head loc_str =
    Buffer.add_string buf
      (Printf.sprintf "%s%s: %s[%s]: %s\n" origin loc_str
         (severity_label d.severity) d.code d.message)
  in
  (match (d.loc, src) with
  | Span { pos; stop }, Some src ->
      let lineno, col, line = line_of_pos src pos in
      head (Printf.sprintf ":%d:%d" lineno (col + 1));
      Buffer.add_string buf ("    " ^ line ^ "\n");
      (* Clamp the caret run to the end of its first line. *)
      let len = min (stop - pos) (String.length line - col) in
      Buffer.add_string buf ("    " ^ caret_line ~col ~len ^ "\n")
  | Span { pos; _ }, None -> head (Printf.sprintf ":%d" pos)
  | Line n, Some src ->
      head (Printf.sprintf ":%d" n);
      let line = nth_line src n in
      if String.trim line <> "" then begin
        Buffer.add_string buf ("    " ^ line ^ "\n");
        let leading =
          let i = ref 0 in
          while
            !i < String.length line && (line.[!i] = ' ' || line.[!i] = '\t')
          do
            incr i
          done;
          !i
        in
        Buffer.add_string buf
          ("    "
          ^ caret_line ~col:leading
              ~len:(String.length (String.trim line))
          ^ "\n")
      end
  | Line n, None -> head (Printf.sprintf ":%d" n)
  | Field name, _ -> head (Printf.sprintf " (%s)" name)
  | No_loc, _ -> head "");
  Buffer.contents buf

let render_list ?src ?origin ds =
  String.concat "" (List.map (render ?src ?origin) (by_severity ds))

(* ------------------------------------------------------------------ *)
(* JSON rendering: a stable machine-readable schema so CI can diff
   findings across runs; the text itself comes from [Json]. *)

module Json = Yasksite_util.Json

let loc_to_json ?src loc : Json.t =
  let kind k rest = Json.Obj (("kind", Json.String k) :: rest) in
  match loc with
  | No_loc -> kind "none" []
  | Field name -> kind "field" [ ("field", String name) ]
  | Line n -> kind "line" [ ("line", Int n) ]
  | Span { pos; stop } ->
      let at =
        match src with
        | None -> []
        | Some src ->
            let lineno, col, _ = line_of_pos src pos in
            [ ("line", Json.Int lineno); ("col", Int (col + 1)) ]
      in
      kind "span" (("pos", Json.Int pos) :: ("stop", Int stop) :: at)

let finding_to_json ?src ?(origin = "input") d =
  Json.Obj
    [ ("origin", String origin);
      ("code", String d.code);
      ("severity", String (severity_label d.severity));
      ("message", String d.message);
      ("loc", loc_to_json ?src d.loc) ]

(* The rule table, rendered once for every subcommand: [yasksite lint
   --rules] in both text and JSON uses this, so the families can never
   drift apart across entry points. *)

let rules_to_text rules =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (code, sev, what) ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-8s %s\n" code (severity_label sev) what))
    rules;
  Buffer.contents buf

(* Documents keep one rule or finding per line (see
   [Json.to_string_rows]) and end in a newline. *)
let document members =
  Json.to_string_rows (Obj (("version", Int 1) :: members)) ^ "\n"

let rules_to_json rules =
  document
    [ ( "rules",
        List
          (List.map
             (fun (code, sev, what) ->
               Json.Obj
                 [ ("code", String code);
                   ("severity", String (severity_label sev));
                   ("summary", String what) ])
             rules) ) ]

let report_to_json items =
  let ds = List.map (fun (_, _, d) -> d) items in
  document
    [ ( "findings",
        List
          (List.map
             (fun (origin, src, d) -> finding_to_json ?src ~origin d)
             items) );
      ( "summary",
        Obj
          [ ("errors", Int (count Error ds));
            ("warnings", Int (count Warning ds));
            ("hints", Int (count Hint ds)) ] ) ]
