(* Outputs every op must reproduce exactly. Floats are hex literals, so
   a check compares bits. *)

type rank = {
  candidates : int;  (** legal heat-3d-7pt configs at 64^3, 1 thread *)
  best_config : string;  (** [Config.to_string] of the top-ranked one *)
  best_lups : float;  (** its predicted chip LUP/s *)
  partitions : int;  (** hdiff partitions ranked at 256^2 *)
  inline : string list;  (** stages the best hdiff partition inlines *)
}

(* clx/8, then rome/8. *)
let rank =
  [ { candidates = 550;
      best_config = "0x4x32 - 8 - 1 false";
      best_lups = 0x1.6409d55555556p+29;
      partitions = 4096;
      inline =
        [ "ulap"; "ufli"; "uflj"; "vlap"; "vfli"; "vflj"; "wlap"; "wfli";
          "wflj"; "pplap"; "ppfli"; "ppflj" ] };
    { candidates = 330;
      best_config = "- - 4 - 1 false";
      best_lups = 0x1.3289c5b6db6dbp+30;
      partitions = 4096;
      inline = [ "ufli"; "uflj"; "vfli"; "vflj"; "wfli"; "wflj"; "ppfli"; "ppflj" ] } ]

(* Offsite candidates in predicted order: variant, tuned, predicted and
   measured step seconds. *)
let ode =
  [ ("rk4-heat-3d-n16-unfused", true, 0x1.0db9548994f5cp-16, 0x1.3c2db9fdaac78p-16);
    ("rk4-heat-3d-n16-unfused", false, 0x1.293634636cb38p-16, 0x1.509b47594f5c4p-16);
    ("rk4-heat-3d-n16-fused", true, 0x1.5b088a1e43bb6p-16, 0x1.a07ac24e6f20ap-16);
    ("rk4-heat-3d-n16-fused", false, 0x1.61e7c214b9aadp-16, 0x1.a59625a55845ep-16) ]

(* MD5 of each hdiff output's interior values (little-endian IEEE bits,
   row-major), the same for every partition and backend. *)
let program_digests =
  [ ("uout", "d5a612696d361eb6e5331dc5b1dfb1e0");
    ("vout", "4c83e169443dc7d3fdc469f30ce78c5d");
    ("wout", "34c2d5b69cade79ee7b9148a7d76c57d");
    ("ppout", "6e1e101c335a627c79c62d72a5bae617") ]
