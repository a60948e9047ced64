(** ASCII charts for figure-shaped experiment output.

    The paper's figures are line/bar plots (performance vs. cores, block
    size sweeps, variant comparisons). We render the same series as ASCII
    charts so the "shape" claims (who wins, where curves saturate or cross)
    are visible directly in benchmark output. *)

type series = { label : string; points : (float * float) array }

val line :
  title:string -> x_label:string -> y_label:string -> series list -> string
(** Multi-series scatter/line chart, 64 columns by 18 rows of plot area.
    Each series is drawn with its own glyph; a legend maps glyphs to
    labels. Axes are linear and auto-scaled over all series. *)
