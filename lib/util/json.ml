type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

(* The fewest significant digits, from 15 up to 17, that read back as
   [f] exactly. *)
let number f =
  let rec digits p =
    let s = Printf.sprintf "%.*g" p f in
    if p = 17 || float_of_string s = f then s else digits (p + 1)
  in
  if Float.is_finite f then digits 15 else "null"

(* One writer for every layout. [breaks depth v] decides whether the
   container [v], nested [depth] deep, puts each element on a line of
   its own, indented two spaces per enclosing broken container. [colon]
   follows every key and [sep] every comma that stays on its line. *)
let render ~breaks ~colon ~sep v =
  let buf = Buffer.create 256 in
  let newline level =
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * level) ' ')
  in
  let quoted s =
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  in
  let rec value depth level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (number f)
    | String s -> quoted s
    | List l as v ->
        items depth level v '[' ']' (List.map (fun x -> (None, x)) l)
    | Obj kvs as v ->
        items depth level v '{' '}' (List.map (fun (k, x) -> (Some k, x)) kvs)
  and items depth level v op cl members =
    let broken = breaks depth v in
    let inner = if broken then level + 1 else level in
    Buffer.add_char buf op;
    List.iteri
      (fun i (key, x) ->
        if i > 0 then Buffer.add_char buf ',';
        if broken then newline inner
        else if i > 0 then Buffer.add_string buf sep;
        Option.iter
          (fun k ->
            quoted k;
            Buffer.add_string buf colon)
          key;
        value (depth + 1) inner x)
      members;
    if broken then newline level;
    Buffer.add_char buf cl
  in
  value 0 0 v;
  Buffer.contents buf

let to_string = render ~breaks:(fun _ _ -> false) ~colon:":" ~sep:""

let to_string_rows =
  render
    ~breaks:(fun depth v ->
      match v with List _ -> depth = 1 | _ -> false)
    ~colon:":" ~sep:""

let to_string_indented =
  let is_container = function List _ | Obj _ -> true | _ -> false in
  render
    ~breaks:(fun _ v ->
      match v with
      | Obj (_ :: _) -> true
      | List l -> List.exists is_container l
      | _ -> false)
    ~colon:": " ~sep:" "
