(* Shipped files the suite reads: machine files and example programs.
   The [deps] of test/dune copy them into the build tree beside the
   test directory, so a path is resolved against the executable's own
   directory and the suite finds them from any working directory. *)
let path rel =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name)
       Filename.parent_dir_name)
    rel
