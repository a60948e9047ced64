type series = { label : string; points : (float * float) array }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '='; '~' |]

let bounds series =
  let xs =
    List.concat_map
      (fun s -> Array.to_list (Array.map fst s.points))
      series
  and ys =
    List.concat_map
      (fun s -> Array.to_list (Array.map snd s.points))
      series
  in
  match (xs, ys) with
  | [], _ | _, [] -> invalid_arg "Chart.line: no points"
  | x0 :: xs', y0 :: ys' ->
      let fold lo hi l = List.fold_left (fun (a, b) v -> (min a v, max b v)) (lo, hi) l in
      let xmin, xmax = fold x0 x0 xs' and ymin, ymax = fold y0 y0 ys' in
      let widen lo hi = if hi > lo then (lo, hi) else (lo -. 1.0, hi +. 1.0) in
      let xmin, xmax = widen xmin xmax and ymin, ymax = widen ymin ymax in
      (xmin, xmax, ymin, ymax)

let line ~title ~x_label ~y_label series =
  let width = 64 and height = 18 in
  let xmin, xmax, ymin, ymax = bounds series in
  let cells = Array.make_matrix height width ' ' in
  let plot_x x =
    let f = (x -. xmin) /. (xmax -. xmin) in
    min (width - 1) (max 0 (int_of_float (f *. float_of_int (width - 1) +. 0.5)))
  in
  let plot_y y =
    let f = (y -. ymin) /. (ymax -. ymin) in
    let row = int_of_float (f *. float_of_int (height - 1) +. 0.5) in
    height - 1 - min (height - 1) (max 0 row)
  in
  List.iteri
    (fun si s ->
      let g = glyphs.(si mod Array.length glyphs) in
      Array.iter (fun (x, y) -> cells.(plot_y y).(plot_x x) <- g) s.points)
    series;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%s (%.4g .. %.4g)\n" y_label ymin ymax);
  Array.iteri
    (fun r row ->
      let edge =
        if r = 0 then Printf.sprintf "%10.4g |" ymax
        else if r = height - 1 then Printf.sprintf "%10.4g |" ymin
        else String.make 10 ' ' ^ " |"
      in
      Buffer.add_string buf edge;
      Buffer.add_string buf (String.init width (fun c -> row.(c)));
      Buffer.add_char buf '\n')
    cells;
  Buffer.add_string buf (String.make 11 ' ' ^ "+" ^ String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%s%-10.4g%s%10.4g   [%s]\n" (String.make 12 ' ') xmin
       (String.make (max 1 (width - 20)) ' ')
       xmax x_label);
  List.iteri
    (fun si s ->
      Buffer.add_string buf
        (Printf.sprintf "  %c  %s\n" glyphs.(si mod Array.length glyphs) s.label))
    series;
  Buffer.contents buf

let bars ~title entries =
  let width = 50 in
  let vmax =
    List.fold_left
      (fun acc (_, v) ->
        if v < 0.0 then invalid_arg "Chart.bars: negative value";
        max acc v)
      0.0 entries
  in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  List.iter
    (fun (l, v) ->
      let n =
        if vmax = 0.0 then 0
        else int_of_float (v /. vmax *. float_of_int width +. 0.5)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s |%s %.4g\n" label_w l (String.make n '#') v))
    entries;
  Buffer.contents buf
