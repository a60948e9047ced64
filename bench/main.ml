(* Benchmark / experiment driver.

   dune exec bench/main.exe              -- run every experiment (E1..E14)
   dune exec bench/main.exe -- --exp e5  -- run one experiment
   dune exec bench/main.exe -- --micro   -- bechamel micro-benchmarks *)

let usage () =
  prerr_endline "usage: main.exe [--exp eN] [--micro] [--list]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | [ _ ] ->
      let (), s =
        Exp.time (fun () -> List.iter (fun (_, f) -> f ()) Experiments.all)
      in
      Printf.printf "\nall experiments completed in %.1f s\n" s
  | [ _; "--list" ] ->
      List.iter (fun (n, _) -> print_endline n) Experiments.all
  | [ _; "--micro" ] -> Micro.run ()
  | [ _; "--exp"; name ] -> (
      match List.assoc_opt (String.lowercase_ascii name) Experiments.all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S\n" name;
          usage ())
  | _ -> usage ()
