module Machine = Yasksite_arch.Machine
module Analysis = Yasksite_stencil.Analysis

type prediction = {
  flops_bound : float;
  memory_bound : float;
  lups_chip : float;
  lups_single : float;
}

let predict (m : Machine.t) (a : Analysis.t) ~threads =
  if threads < 1 then invalid_arg "Roofline.predict: threads must be >= 1";
  let flops_per_lup = float_of_int (max a.flops 1) in
  let balance = Analysis.min_code_balance a in
  let intensity = flops_per_lup /. balance in
  let flops_bound = Machine.peak_flops_core m *. float_of_int threads in
  let memory_bound = m.mem_bw_chip_gbs *. 1e9 *. intensity in
  let lups_chip = min flops_bound memory_bound /. flops_per_lup in
  (* One core can draw at most its own memory-link bandwidth. *)
  let core_mem_flops =
    (Machine.last_level m).Yasksite_arch.Cache_level.bytes_per_cycle
    *. Machine.cycles_per_second m *. intensity
  in
  let single = min (Machine.peak_flops_core m) core_mem_flops in
  { flops_bound;
    memory_bound;
    lups_chip;
    lups_single = single /. flops_per_lup }
