let bytes n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.0f KiB" (f /. 1024.0)
  else if n < 1024 * 1024 * 1024 then
    Printf.sprintf "%.1f MiB" (f /. (1024.0 *. 1024.0))
  else Printf.sprintf "%.1f GiB" (f /. (1024.0 *. 1024.0 *. 1024.0))

let gflops x = Printf.sprintf "%.2f GF/s" (x /. 1e9)

let gbs x = Printf.sprintf "%.1f GB/s" (x /. 1e9)
