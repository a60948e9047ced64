(* The checked kernel AST: the concrete syntax of what Codegen emits.

   Codegen's output grammar is tiny -- one type declaration, one row
   function whose body is prelude bindings plus an output loop over
   [let]-bound temporaries and a float expression of unsafe loads with
   every operation in its own parentheses, and one Callback.register --
   and this module is its parser and printer: a hand-written lexer
   (dotted paths lex as single idents, hex-float literals round-trip
   [%h] exactly, [-] glued to a digit starts a negative numeral) and a
   recursive-descent parser accepting exactly the emitted shapes,
   nothing more. The YS6xx
   translation validator (Lint.Native) compares parsed ASTs against the
   plan IR; the seeded miscompile injector (Faults.Miscompile) mutates
   them and prints them back. Keeping syntax here and judgment in the
   lint layer is what lets both ends share one grammar without a
   dependency cycle. *)

(* ------------------------------------------------------------------ *)
(* The checked AST                                                     *)

type binop = Add | Sub | Mul | Div

type addr =
  | Unit_addr of { data : int; row : int; shift : int }
  | Tab_addr of { data : int; row : int; tab : int; shift : int }

type expr =
  | Lit of float
  | Get of addr
  | Neg of expr
  | Bin of binop * expr * expr
  | Fmin of expr * expr  (* (Float.min a b) *)
  | Fmax of expr * expr  (* (Float.max a b) *)
  | Sel of expr * expr * expr  (* (if c > 0.0 then a else b) *)
  | Temp of int  (* v<n>, a temporary the output loop let-binds *)

type bind =
  | Bind_data of { name : int; src : int }
  | Bind_tab of { name : int; src : int }
  | Bind_row of { name : int; src : int }

type out_addr = Out_unit of { lp : int } | Out_tab of { lp : int }

type unit_ast = {
  row_binds : bind list;
  row_out : out_addr;
  row_lets : (int * expr) list;
  row_expr : expr;
  reg_name : string;
}

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | EQUAL
  | BANG
  | INT of int
  | FLOAT of float
  | IDENT of string
  | STRING of string
  | OP of string  (* "+." "-." "*." "/." "+" "-" *)
  | EOF

exception Reject of string * int  (* message, 1-based line *)

let fail line fmt = Printf.ksprintf (fun m -> raise (Reject (m, line))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '\''

(* Tokenize the whole unit. Dotted paths ([Bigarray.Array1.unsafe_get])
   lex as single idents; [-] immediately followed by a digit starts a
   negative numeral (Codegen only emits that inside parentheses, and
   spaces the binary minus of [xe - 1]); hex-float literals lex through
   [float_of_string], which round-trips [%h] exactly. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let emit t = toks := (t, !line) :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let skip_comment () =
    (* enter with !i at the '(' of "(*" *)
    let rec go depth =
      if !i >= n then fail !line "unterminated comment";
      match src.[!i] with
      | '\n' ->
          incr line;
          incr i;
          go depth
      | '(' when peek 1 = Some '*' ->
          i := !i + 2;
          go (depth + 1)
      | '*' when peek 1 = Some ')' ->
          i := !i + 2;
          if depth > 1 then go (depth - 1)
      | _ ->
          incr i;
          go depth
    in
    i := !i + 2;
    go 1
  in
  let lex_number ~neg =
    let start = !i in
    if neg then incr i;
    let is_hexfloat = ref false in
    if !i + 1 < n && src.[!i] = '0' && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X')
    then begin
      i := !i + 2;
      while !i < n && is_hex src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' then begin
        is_hexfloat := true;
        incr i;
        while !i < n && is_hex src.[!i] do incr i done
      end;
      if !i < n && (src.[!i] = 'p' || src.[!i] = 'P') then begin
        is_hexfloat := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end
    end
    else begin
      while !i < n && is_digit src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' && peek 1 <> Some ' ' then begin
        is_hexfloat := true;
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end
    end;
    let lexeme = String.sub src start (!i - start) in
    if !is_hexfloat then
      match float_of_string_opt lexeme with
      | Some f -> emit (FLOAT f)
      | None -> fail !line "bad float literal %S" lexeme
    else
      match int_of_string_opt lexeme with
      | Some v -> emit (INT v)
      | None -> fail !line "bad integer literal %S" lexeme
  in
  let lex_string () =
    incr i;
    let b = Buffer.create 32 in
    let rec go () =
      if !i >= n then fail !line "unterminated string literal";
      match src.[!i] with
      | '"' -> incr i
      | '\\' ->
          if !i + 1 >= n then fail !line "unterminated escape";
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | ('\\' | '"' | '\'') as c -> Buffer.add_char b c
          | c when is_digit c ->
              if !i + 3 >= n then fail !line "unterminated escape";
              let d = String.sub src (!i + 1) 3 in
              (match int_of_string_opt d with
              | Some v when v < 256 ->
                  Buffer.add_char b (Char.chr v);
                  i := !i + 2
              | _ -> fail !line "bad escape \\%s" d)
          | c -> fail !line "unsupported escape \\%c" c);
          i := !i + 2;
          go ()
      | c ->
          if c = '\n' then incr line;
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    emit (STRING (Buffer.contents b))
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' && peek 1 = Some '*' then skip_comment ()
    else if c = '(' then begin
      emit LPAREN;
      incr i
    end
    else if c = ')' then begin
      emit RPAREN;
      incr i
    end
    else if c = ',' then begin
      emit COMMA;
      incr i
    end
    else if c = ';' then begin
      emit SEMI;
      incr i
    end
    else if c = ':' then begin
      emit COLON;
      incr i
    end
    else if c = '=' then begin
      emit EQUAL;
      incr i
    end
    else if c = '!' then begin
      emit BANG;
      incr i
    end
    else if c = '>' then begin
      emit (OP ">");
      incr i
    end
    else if c = '"' then lex_string ()
    else if is_digit c then lex_number ~neg:false
    else if c = '-' then
      match peek 1 with
      | Some '.' ->
          emit (OP "-.");
          i := !i + 2
      | Some d when is_digit d -> lex_number ~neg:true
      | _ ->
          emit (OP "-");
          incr i
    else if c = '+' then
      match peek 1 with
      | Some '.' ->
          emit (OP "+.");
          i := !i + 2
      | _ ->
          emit (OP "+");
          incr i
    else if c = '*' && peek 1 = Some '.' then begin
      emit (OP "*.");
      i := !i + 2
    end
    else if c = '/' && peek 1 = Some '.' then begin
      emit (OP "/.");
      i := !i + 2
    end
    else if is_ident_start c then begin
      let start = !i in
      let continue = ref true in
      while !continue do
        incr i;
        while !i < n && is_ident_char src.[!i] do incr i done;
        (* a dot glued to a further ident extends the path *)
        if !i + 1 < n && src.[!i] = '.' && is_ident_start src.[!i + 1] then
          incr i
        else continue := false
      done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else fail !line "unexpected character %C" c
  done;
  emit EOF;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over exactly the emitted unit shape       *)

type parser_state = { toks : (token * int) array; mutable pos : int }

let peek p = fst p.toks.(p.pos)

let peek2 p =
  if p.pos + 1 < Array.length p.toks then fst p.toks.(p.pos + 1) else EOF

let line_at p = snd p.toks.(p.pos)

let next p =
  let t = p.toks.(p.pos) in
  if p.pos + 1 < Array.length p.toks then p.pos <- p.pos + 1;
  t

let tok_str = function
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | EQUAL -> "="
  | BANG -> "!"
  | INT v -> string_of_int v
  | FLOAT f -> Printf.sprintf "%h" f
  | IDENT s -> s
  | STRING s -> Printf.sprintf "%S" s
  | OP s -> s
  | EOF -> "<eof>"

let expect p want =
  let t, l = next p in
  if t <> want then fail l "expected %s, found %s" (tok_str want) (tok_str t)

let expect_ident p name =
  let t, l = next p in
  match t with
  | IDENT s when s = name -> ()
  | t -> fail l "expected %s, found %s" name (tok_str t)

let expect_idents p names = List.iter (expect_ident p) names

(* [dN]/[tN]/[rN] slot names *)
let slot_of ~prefix ident line =
  let len = String.length ident in
  if len < 2 || ident.[0] <> prefix then
    fail line "expected a %c<slot> name, found %s" prefix ident
  else
    match int_of_string_opt (String.sub ident 1 (len - 1)) with
    | Some s when s >= 0 -> s
    | _ -> fail line "expected a %c<slot> name, found %s" prefix ident

let parse_int_lit p =
  match next p with
  | INT v, _ -> v
  | LPAREN, _ -> (
      match next p with
      | INT v, _ ->
          expect p RPAREN;
          v
      | t, l -> fail l "expected an integer literal, found %s" (tok_str t))
  | t, l -> fail l "expected an integer literal, found %s" (tok_str t)

(* one load: the tokens after "(Bigarray.Array1.unsafe_get" *)
let parse_load p =
  let data =
    match next p with
    | IDENT s, l -> slot_of ~prefix:'d' s l
    | t, l -> fail l "expected a data handle, found %s" (tok_str t)
  in
  expect p LPAREN;
  let row =
    match next p with
    | IDENT s, l -> slot_of ~prefix:'r' s l
    | t, l -> fail l "expected a row base, found %s" (tok_str t)
  in
  expect p (OP "+");
  match peek p with
  | IDENT "x" ->
      ignore (next p);
      expect p (OP "+");
      let shift = parse_int_lit p in
      expect p RPAREN;
      Unit_addr { data; row; shift }
  | IDENT "Array.unsafe_get" ->
      ignore (next p);
      let tab =
        match next p with
        | IDENT s, l -> slot_of ~prefix:'t' s l
        | t, l -> fail l "expected an offset table, found %s" (tok_str t)
      in
      expect p LPAREN;
      expect_ident p "x";
      expect p (OP "+");
      let shift = parse_int_lit p in
      expect p RPAREN;
      expect p RPAREN;
      Tab_addr { data; row; tab; shift }
  | t -> fail (line_at p) "expected x or a table access, found %s" (tok_str t)

(* [v<n>] names a temporary *)
let is_temp s = String.length s > 1 && s.[0] = 'v'

(* expressions: Codegen parenthesizes every operation on its own, so a
   binary operation is exactly [(a op b)] over two primaries — there is
   no precedence to resolve and an unparenthesized chain is refused.
   Literals are only what Codegen writes: [(%h)] for a finite value,
   [infinity] and [neg_infinity] bare; a bare float and [nan] are
   refused *)
let rec parse_primary p =
  match next p with
  | IDENT "infinity", _ -> Lit infinity
  | IDENT "neg_infinity", _ -> Lit neg_infinity
  | IDENT s, l when is_temp s -> Temp (slot_of ~prefix:'v' s l)
  | INT v, l ->
      fail l "integer literal %d in a float expression" v
  | LPAREN, _ -> (
      match peek p with
      | OP "-." ->
          ignore (next p);
          let e = parse_primary p in
          expect p RPAREN;
          Neg e
      | IDENT "Bigarray.Array1.unsafe_get" ->
          ignore (next p);
          let a = parse_load p in
          expect p RPAREN;
          Get a
      | IDENT "Float.min" ->
          ignore (next p);
          let a = parse_primary p in
          let b = parse_primary p in
          expect p RPAREN;
          Fmin (a, b)
      | IDENT "Float.max" ->
          ignore (next p);
          let a = parse_primary p in
          let b = parse_primary p in
          expect p RPAREN;
          Fmax (a, b)
      | IDENT "if" ->
          (* the branchless compare-select: (if c > 0.0 then a else b) *)
          ignore (next p);
          let c = parse_primary p in
          expect p (OP ">");
          (match next p with
          | FLOAT f, _ when Int64.bits_of_float f = 0L -> ()
          | t, l ->
              fail l "select compares against %s, expected literal 0.0"
                (tok_str t));
          expect_ident p "then";
          let a = parse_primary p in
          expect_ident p "else";
          let b = parse_primary p in
          expect p RPAREN;
          Sel (c, a, b)
      | FLOAT f when peek2 p = RPAREN ->
          ignore (next p);
          ignore (next p);
          Lit f
      | _ ->
          let a = parse_primary p in
          let op =
            match next p with
            | OP "+.", _ -> Add
            | OP "-.", _ -> Sub
            | OP "*.", _ -> Mul
            | OP "/.", _ -> Div
            | t, l -> fail l "expected a float operator, found %s" (tok_str t)
          in
          let b = parse_primary p in
          expect p RPAREN;
          Bin (op, a, b))
  | t, l -> fail l "expected an expression, found %s" (tok_str t)

(* the row expression as the output store passes it: [(e)] *)
let parse_stored p =
  expect p LPAREN;
  let e = parse_primary p in
  expect p RPAREN;
  e

(* the output loop's temporaries: [let vN = e in], in order *)
let parse_lets p =
  let lets = ref [] in
  while
    match (peek p, peek2 p) with
    | IDENT "let", IDENT s -> is_temp s
    | _ -> false
  do
    ignore (next p);
    let t =
      match next p with
      | IDENT s, l -> slot_of ~prefix:'v' s l
      | t, l -> fail l "expected a temporary, found %s" (tok_str t)
    in
    expect p EQUAL;
    let e = parse_primary p in
    expect_ident p "in";
    lets := (t, e) :: !lets
  done;
  List.rev !lets

(* prelude bindings: [let dN = Array.unsafe_get slot_data N in] etc. *)
let parse_binds p =
  let binds = ref [] in
  let is_slot_name s =
    String.length s >= 2
    && (s.[0] = 'd' || s.[0] = 't' || s.[0] = 'r')
    && int_of_string_opt (String.sub s 1 (String.length s - 1)) <> None
  in
  let continue = ref true in
  while !continue do
    match (peek p, peek2 p) with
    | IDENT "let", IDENT name when is_slot_name name ->
        ignore (next p);
        let _, l = next p in
        expect p EQUAL;
        expect_ident p "Array.unsafe_get";
        let src_arr =
          match next p with
          | IDENT s, _ -> s
          | t, l -> fail l "expected a source array, found %s" (tok_str t)
        in
        let src = parse_int_lit p in
        expect_ident p "in";
        let b =
          match (name.[0], src_arr) with
          | 'd', "slot_data" ->
              Bind_data { name = slot_of ~prefix:'d' name l; src }
          | 't', "slot_tab" -> Bind_tab { name = slot_of ~prefix:'t' name l; src }
          | 'r', "row" -> Bind_row { name = slot_of ~prefix:'r' name l; src }
          | _ ->
              fail l "binding %s reads %s (wrong source array)" name src_arr
        in
        binds := b :: !binds
    | _ -> continue := false
  done;
  List.rev !binds

let parse_ignores p names =
  List.iter
    (fun n ->
      expect_ident p "ignore";
      expect_ident p n;
      expect p SEMI)
    names

let parse_unit_toks p =
  (* type farr = (float, Bigarray.float64_elt, Bigarray.c_layout)
     Bigarray.Array1.t *)
  expect_idents p [ "type"; "farr" ];
  expect p EQUAL;
  expect p LPAREN;
  expect_ident p "float";
  expect p COMMA;
  expect_ident p "Bigarray.float64_elt";
  expect p COMMA;
  expect_ident p "Bigarray.c_layout";
  expect p RPAREN;
  expect_ident p "Bigarray.Array1.t";
  let param p name tys =
    expect p LPAREN;
    expect_ident p name;
    expect p COLON;
    expect_idents p tys;
    expect p RPAREN
  in
  (* kern_row *)
  expect_idents p [ "let"; "kern_row" ];
  param p "slot_data" [ "farr"; "array" ];
  param p "slot_tab" [ "int"; "array"; "array" ];
  param p "out" [ "farr" ];
  param p "out_tab" [ "int"; "array" ];
  param p "row" [ "int"; "array" ];
  param p "out_row" [ "int" ];
  param p "xb" [ "int" ];
  param p "xe" [ "int" ];
  expect p COLON;
  expect_ident p "unit";
  expect p EQUAL;
  parse_ignores p [ "slot_data"; "slot_tab"; "out_tab"; "row" ];
  let row_binds = parse_binds p in
  let row_out, row_lets, row_expr =
    match peek p with
    | IDENT "let" ->
        (* unit-stride output: a running flat offset *)
        expect_idents p [ "let"; "off" ];
        expect p EQUAL;
        expect_ident p "ref";
        expect p LPAREN;
        expect_ident p "out_row";
        expect p (OP "+");
        let lp = parse_int_lit p in
        expect p (OP "+");
        expect_ident p "xb";
        expect p RPAREN;
        expect_ident p "in";
        expect_idents p [ "for"; "x" ];
        expect p EQUAL;
        expect_idents p [ "xb"; "to"; "xe" ];
        expect p (OP "-");
        expect p (INT 1);
        expect_ident p "do";
        let lets = parse_lets p in
        expect_ident p "Bigarray.Array1.unsafe_set";
        expect_ident p "out";
        expect p BANG;
        expect_ident p "off";
        let e = parse_stored p in
        expect p SEMI;
        expect_idents p [ "incr"; "off"; "done" ];
        (Out_unit { lp }, lets, e)
    | IDENT "for" ->
        (* table-indexed output *)
        expect_idents p [ "for"; "x" ];
        expect p EQUAL;
        expect_idents p [ "xb"; "to"; "xe" ];
        expect p (OP "-");
        expect p (INT 1);
        expect_ident p "do";
        let lets = parse_lets p in
        expect_ident p "Bigarray.Array1.unsafe_set";
        expect_ident p "out";
        expect p LPAREN;
        expect_ident p "out_row";
        expect p (OP "+");
        expect_ident p "Array.unsafe_get";
        expect_ident p "out_tab";
        expect p LPAREN;
        expect_ident p "x";
        expect p (OP "+");
        let lp = parse_int_lit p in
        expect p RPAREN;
        expect p RPAREN;
        let e = parse_stored p in
        expect_ident p "done";
        (Out_tab { lp }, lets, e)
    | t -> fail (line_at p) "expected the output loop, found %s" (tok_str t)
  in
  (* let () = Callback.register "name" kern_row *)
  expect_ident p "let";
  expect p LPAREN;
  expect p RPAREN;
  expect p EQUAL;
  expect_ident p "Callback.register";
  let reg_name =
    match next p with
    | STRING s, _ -> s
    | t, l -> fail l "expected the registration name, found %s" (tok_str t)
  in
  expect_ident p "kern_row";
  (match next p with
  | EOF, _ -> ()
  | t, l -> fail l "trailing tokens after the registration: %s" (tok_str t));
  { row_binds; row_out; row_lets; row_expr; reg_name }

let parse src =
  match parse_unit_toks { toks = tokenize src; pos = 0 } with
  | ast -> Ok ast
  | exception Reject (msg, line) -> Error (msg, line)

(* ------------------------------------------------------------------ *)
(* Printer: the one emitter of kernel units -- Codegen prints the AST
   it builds, the miscompile injector prints its mutants back          *)

let float_lit c =
  if c <> c then "nan"
  else if c = infinity then "infinity"
  else if c = neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" c

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

let rec expr_str = function
  | Lit c -> float_lit c
  | Get (Unit_addr { data; row; shift }) ->
      Printf.sprintf "(Bigarray.Array1.unsafe_get d%d (r%d + x + %s))" data
        row (int_lit shift)
  | Get (Tab_addr { data; row; tab; shift }) ->
      Printf.sprintf
        "(Bigarray.Array1.unsafe_get d%d (r%d + Array.unsafe_get t%d (x + \
         %s)))"
        data row tab (int_lit shift)
  | Neg e -> Printf.sprintf "(-. %s)" (expr_str e)
  | Bin (op, a, b) ->
      let o =
        match op with Add -> "+." | Sub -> "-." | Mul -> "*." | Div -> "/."
      in
      Printf.sprintf "(%s %s %s)" (expr_str a) o (expr_str b)
  | Fmin (a, b) -> Printf.sprintf "(Float.min %s %s)" (expr_str a) (expr_str b)
  | Fmax (a, b) -> Printf.sprintf "(Float.max %s %s)" (expr_str a) (expr_str b)
  | Sel (c, a, b) ->
      Printf.sprintf "(if %s > 0.0 then %s else %s)" (expr_str c) (expr_str a)
        (expr_str b)
  | Temp t -> Printf.sprintf "v%d" t

let bind_str = function
  | Bind_data { name; src } ->
      Printf.sprintf "  let d%d = Array.unsafe_get slot_data %d in\n" name src
  | Bind_tab { name; src } ->
      Printf.sprintf "  let t%d = Array.unsafe_get slot_tab %d in\n" name src
  | Bind_row { name; src } ->
      Printf.sprintf "  let r%d = Array.unsafe_get row %d in\n" name src

let print ~header ast =
  let b = Buffer.create 2048 in
  Printf.bprintf b "(* %s *)\n\n" header;
  Buffer.add_string b
    "type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) \
     Bigarray.Array1.t\n\n";
  Buffer.add_string b
    "let kern_row (slot_data : farr array) (slot_tab : int array array)\n\
    \    (out : farr) (out_tab : int array) (row : int array) (out_row : \
     int)\n\
    \    (xb : int) (xe : int) : unit =\n";
  Buffer.add_string b
    "  ignore slot_data; ignore slot_tab; ignore out_tab; ignore row;\n";
  List.iter (fun bd -> Buffer.add_string b (bind_str bd)) ast.row_binds;
  let lets () =
    List.iter
      (fun (t, e) -> Printf.bprintf b "    let v%d = %s in\n" t (expr_str e))
      ast.row_lets
  in
  (match ast.row_out with
  | Out_unit { lp } ->
      Printf.bprintf b "  let off = ref (out_row + %s + xb) in\n" (int_lit lp);
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      lets ();
      Printf.bprintf b "    Bigarray.Array1.unsafe_set out !off (%s);\n"
        (expr_str ast.row_expr);
      Buffer.add_string b "    incr off\n  done\n\n"
  | Out_tab { lp } ->
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      lets ();
      Printf.bprintf b
        "    Bigarray.Array1.unsafe_set out (out_row + Array.unsafe_get \
         out_tab (x + %s)) (%s)\n"
        (int_lit lp) (expr_str ast.row_expr);
      Buffer.add_string b "  done\n\n");
  Printf.bprintf b "let () = Callback.register %S kern_row\n" ast.reg_name;
  Buffer.contents b

