type t =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s -> escape b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b
