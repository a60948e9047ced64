(** The standard stencil suite used across the evaluation — the analogue
    of the kernel set a YaskSite-style paper benchmarks (short- and
    long-range stars, boxes, variable coefficients, plus streaming
    kernels for model calibration). Coefficients are symbolic; use
    {!resolve_defaults} (or [Spec.resolve]) before compiling. *)

val copy_1d : Spec.t
(** [out(x) = f0(x)] — pure stream, calibrates bandwidth terms. *)

val heat_1d_3pt : Spec.t

val heat_2d_5pt : Spec.t

val box_2d_9pt : Spec.t

val heat_3d_7pt : Spec.t
(** The paper's workhorse kernel (3D 7-point constant-coefficient). *)

val box_3d_27pt : Spec.t

val star_3d_r2 : Spec.t
(** 13-point long-range star (radius 2). *)

val varcoef_3d_7pt : Spec.t
(** 7-point star with a variable-coefficient field (2 read streams). *)

val all : Spec.t list
(** Every suite stencil, in presentation order. *)

val eval_suite : Spec.t list
(** The subset used for the prediction-accuracy experiments (excludes the
    trivial streaming kernels). *)

val find : string -> Spec.t
(** Lookup by name; raises [Not_found]. *)

val resolve_defaults : Spec.t -> Spec.t
(** Bind every symbolic coefficient to a documented default (e.g.
    [r = 0.1]), leaving the kernel ready to compile. *)

val hdiff_text : string
(** The textual source of {!hdiff} (also shipped as
    [examples/hdiff.prog]). *)

val hdiff : Program.t
(** The absinthe-style horizontal-diffusion program: per advected field
    ([u], [v], [w], [pp]) a Laplacian stage, two flux stages whose
    limiter is the branchless [select], and a masked output update —
    16 stages over 5 inputs, 4 independent components. The multi-stage
    pipeline of the fusion experiments. *)

val programs : Program.t list
(** Every suite program, in presentation order. *)

val find_program : string -> Program.t
(** Lookup by name; raises [Not_found]. *)
