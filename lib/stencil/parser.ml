(* Hand-written lexer and recursive-descent parser for the stencil
   expression language. Kept dependency-free (no menhir) since the
   grammar is small and errors should carry friendly positions.

   Besides the plain AST, the parser can report *located* results: the
   source span of every field reference and of every divisor
   subexpression. The lint layer uses those spans to attach caret
   diagnostics to semantic findings (duplicate loads, division by zero)
   without Expr.t having to carry positions itself. *)

type token =
  | Num of float
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Plus
  | Minus
  | Star
  | Slash

exception Parse_error of int * string (* position, message *)

let fail pos fmt = Printf.ksprintf (fun m -> raise (Parse_error (pos, m))) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident c = is_ident_start c || is_digit c

(* Tokens carry their [start, stop) byte range in the source. *)
let lex src =
  let n = String.length src in
  let tokens = ref [] in
  let i = ref 0 in
  let push tok pos stop = tokens := (tok, pos, stop) :: !tokens in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c || c = '.' then begin
      let j = ref !i in
      (* digits, optional fraction, optional exponent *)
      while !j < n && (is_digit src.[!j] || src.[!j] = '.') do
        incr j
      done;
      if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
        incr j;
        if !j < n && (src.[!j] = '+' || src.[!j] = '-') then incr j;
        while !j < n && is_digit src.[!j] do
          incr j
        done
      end;
      let text = String.sub src !i (!j - !i) in
      (match float_of_string_opt text with
      | Some v -> push (Num v) pos !j
      | None -> fail pos "malformed number %S" text);
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do
        incr j
      done;
      push (Ident (String.sub src !i (!j - !i))) pos !j;
      i := !j
    end
    else begin
      (match c with
      | '(' -> push Lparen pos (pos + 1)
      | ')' -> push Rparen pos (pos + 1)
      | ',' -> push Comma pos (pos + 1)
      | '+' -> push Plus pos (pos + 1)
      | '-' -> push Minus pos (pos + 1)
      | '*' -> push Star pos (pos + 1)
      | '/' -> push Slash pos (pos + 1)
      | _ -> fail pos "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser *)

type located = {
  expr : Expr.t;
  refs : (Expr.access * (int * int)) list;
  divisors : (Expr.t * (int * int)) list;
}

type state = {
  mutable toks : (token * int * int) list;
  len : int;
  fields : (string * int) list; (* named input fields (programs) *)
  mutable refs : (Expr.access * (int * int)) list; (* reverse parse order *)
  mutable divs : (Expr.t * (int * int)) list;
}

(* Builtin functions and their arities. The names are reserved: they
   can never be coefficients or field names. *)
let builtin_arity = function
  | "min" | "max" -> Some 2
  | "select" -> Some 3
  | _ -> None

let builtin_names = [ "min"; "max"; "select" ]

let peek st =
  match st.toks with [] -> None | (t, p, _) :: _ -> Some (t, p)

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

(* Consume [tok], returning its stop offset (for span tracking). *)
let expect st tok what =
  match st.toks with
  | (t, _, stop) :: _ when t = tok ->
      advance st;
      stop
  | (_, p, _) :: _ -> fail p "expected %s" what
  | [] -> fail st.len "expected %s at end of input" what

let axes_for rank =
  match rank with
  | 1 -> [ ("x", 0) ]
  | 2 -> [ ("y", 0); ("x", 1) ]
  | _ -> [ ("z", 0); ("y", 1); ("x", 2) ]

(* A coordinate: axis, axis+k, axis-k, or a bare (possibly negative)
   integer that must belong to the axis at this position. *)
let parse_coord st ~axes ~dim_index =
  match peek st with
  | Some (Ident name, p) -> (
      advance st;
      let dim =
        match List.assoc_opt name axes with
        | Some d -> d
        | None -> fail p "unknown axis %S" name
      in
      if dim <> dim_index then
        fail p "axis %S in position %d (expected position %d)" name dim_index
          dim;
      match peek st with
      | Some (Plus, _) -> (
          advance st;
          match peek st with
          | Some (Num v, _) ->
              advance st;
              int_of_float v
          | Some (_, q) -> fail q "expected offset after '+'"
          | None -> fail st.len "expected offset after '+'")
      | Some (Minus, _) -> (
          advance st;
          match peek st with
          | Some (Num v, _) ->
              advance st;
              -int_of_float v
          | Some (_, q) -> fail q "expected offset after '-'"
          | None -> fail st.len "expected offset after '-'")
      | _ -> 0)
  | Some (Num v, _) ->
      advance st;
      int_of_float v
  | Some (Minus, _) -> (
      advance st;
      match peek st with
      | Some (Num v, _) ->
          advance st;
          -int_of_float v
      | Some (_, p) -> fail p "expected number after '-'"
      | None -> fail st.len "expected number after '-'")
  | Some (_, p) -> fail p "expected coordinate"
  | None -> fail st.len "expected coordinate"

let field_of_ident name =
  if String.length name >= 2 && name.[0] = 'f' then
    int_of_string_opt (String.sub name 1 (String.length name - 1))
  else None

(* Every parse function returns the expression with its [start, stop)
   span so enclosing nodes can extend it. *)
let rec parse_sum st ~rank =
  let lhs = ref (parse_term st ~rank) in
  let rec loop () =
    match peek st with
    | Some (Plus, _) ->
        advance st;
        let e, (a, _) = !lhs and r, (_, stop) = parse_term st ~rank in
        lhs := (Expr.Add (e, r), (a, stop));
        loop ()
    | Some (Minus, _) ->
        advance st;
        let e, (a, _) = !lhs and r, (_, stop) = parse_term st ~rank in
        lhs := (Expr.Sub (e, r), (a, stop));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_term st ~rank =
  let lhs = ref (parse_unary st ~rank) in
  let rec loop () =
    match peek st with
    | Some (Star, _) ->
        advance st;
        let e, (a, _) = !lhs and r, (_, stop) = parse_unary st ~rank in
        lhs := (Expr.Mul (e, r), (a, stop));
        loop ()
    | Some (Slash, _) ->
        advance st;
        let e, (a, _) = !lhs and r, rspan = parse_unary st ~rank in
        st.divs <- (r, rspan) :: st.divs;
        lhs := (Expr.Div (e, r), (a, snd rspan));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_unary st ~rank =
  match peek st with
  | Some (Minus, p) ->
      advance st;
      let e, (_, stop) = parse_unary st ~rank in
      (Expr.Neg e, (p, stop))
  | _ -> parse_atom st ~rank

and parse_atom st ~rank =
  match st.toks with
  | (Num v, p, stop) :: _ ->
      advance st;
      (Expr.Const v, (p, stop))
  | (Lparen, p, _) :: _ ->
      advance st;
      let e, _ = parse_sum st ~rank in
      let stop = expect st Rparen "')'" in
      (e, (p, stop))
  | (Ident name, p, pstop) :: _ -> (
      advance st;
      let access_of field =
        let axes = axes_for rank in
        let offsets = Array.make rank 0 in
        for dim = 0 to rank - 1 do
          if dim > 0 then ignore (expect st Comma "','" : int);
          offsets.(dim) <- parse_coord st ~axes ~dim_index:dim
        done;
        let stop = expect st Rparen "')'" in
        let access = { Expr.field; offsets } in
        st.refs <- (access, (p, stop)) :: st.refs;
        (Expr.Ref access, (p, stop))
      in
      match (builtin_arity name, peek st) with
      | Some arity, Some (Lparen, _) ->
          advance st;
          let args, stop = parse_args st ~rank in
          if List.length args <> arity then
            fail p "%s expects %d arguments, found %d" name arity
              (List.length args);
          let e =
            match (name, args) with
            | "min", [ a; b ] -> Expr.Min (a, b)
            | "max", [ a; b ] -> Expr.Max (a, b)
            | "select", [ c; a; b ] -> Expr.Select (c, a, b)
            | _ -> assert false
          in
          (e, (p, stop))
      | Some arity, _ ->
          fail p "%s is a builtin function and needs %d argument(s)" name
            arity
      | None, _ -> (
          match (field_of_ident name, peek st) with
          | Some field, Some (Lparen, _) ->
              advance st;
              access_of field
          | _, Some (Lparen, _) -> (
              match List.assoc_opt name st.fields with
              | Some field ->
                  advance st;
                  access_of field
              | None ->
                  fail p "unknown function %S (builtins are %s)" name
                    (String.concat ", " builtin_names))
          | _, _ -> (
              match List.assoc_opt name st.fields with
              | Some _ ->
                  fail p "field %S requires coordinates, e.g. %s(...)" name
                    name
              | None -> (Expr.Coeff name, (p, pstop)))))
  | (_, p, _) :: _ -> fail p "expected expression"
  | [] -> fail st.len "expected expression"

(* After the call's '(' : comma-separated argument expressions up to
   the matching ')'. Returns the arguments with the ')' stop offset. *)
and parse_args st ~rank =
  let rec go acc =
    let e, _ = parse_sum st ~rank in
    match peek st with
    | Some (Comma, _) ->
        advance st;
        go (e :: acc)
    | _ ->
        let stop = expect st Rparen "')'" in
        (List.rev (e :: acc), stop)
  in
  go []

let parse_expr_located ?(fields = []) ~rank src =
  if rank < 1 || rank > 3 then Error (0, "rank must be 1..3")
  else begin
    try
      let st =
        { toks = lex src;
          len = String.length src;
          fields;
          refs = [];
          divs = [] }
      in
      let e, _ = parse_sum st ~rank in
      match peek st with
      | Some (_, p) -> Error (p, "trailing input")
      | None ->
          Ok { expr = e; refs = List.rev st.refs; divisors = List.rev st.divs }
    with Parse_error (pos, msg) -> Error (pos, msg)
  end

let parse_expr ?fields ~rank src =
  if rank < 1 || rank > 3 then Error "rank must be 1..3"
  else
    match parse_expr_located ?fields ~rank src with
    | Ok l -> Ok l.expr
    | Error (pos, msg) -> Error (Printf.sprintf "at %d: %s" pos msg)

let parse_spec ~name ~rank src =
  match parse_expr ~rank src with
  | Error _ as e -> e
  | Ok expr -> (
      (* Infer the field count from the highest referenced field. *)
      let n_fields =
        1
        + Expr.fold_accesses expr ~init:0 ~f:(fun m (a : Expr.access) ->
              max m a.Expr.field)
      in
      try Ok (Spec.v ~name ~rank ~n_fields expr)
      with Invalid_argument m -> Error m)
