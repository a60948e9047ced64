type align = Left | Right

type t = {
  title : string option;
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ?title ~columns () =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cs -> max acc (String.length (List.nth cs i)))
          (String.length h) rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let horiz () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line aligns cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | None -> ()
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n');
  let aligns = List.map snd t.columns in
  horiz ();
  line (List.map (fun _ -> Left) t.columns) headers;
  horiz ();
  List.iter (line aligns) rows;
  horiz ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_f ?(prec = 2) x = Printf.sprintf "%.*f" prec x

let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
