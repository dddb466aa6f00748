package experiments

import (
	"fmt"
	"strings"

	"distinct/internal/cluster"
	"distinct/internal/eval"
)

// Variant is one of the six approaches compared in the paper's Figure 4.
type Variant struct {
	// Name is the label used in the figure.
	Name string
	// Supervised selects SVM-learned path weights.
	Supervised bool
	// Measure is the cluster similarity measure.
	Measure cluster.Measure
	// TuneMinSim selects per-variant threshold tuning; the paper fixes
	// DISTINCT's min-sim and tunes every other variant's to maximise
	// average accuracy.
	TuneMinSim bool
}

// DISTINCT is the full approach: supervised weighting of the combined
// measure at a fixed min-sim.
func DISTINCT() Variant {
	return Variant{Name: "DISTINCT", Supervised: true, Measure: cluster.Combined}
}

// Figure4Variants returns the six variants in the paper's legend order:
// DISTINCT, supervised set resemblance, supervised random walk,
// unsupervised combined, unsupervised set resemblance, unsupervised random
// walk. The single-measure variants correspond to the approaches of
// references [1] (Bhattacharya & Getoor) and [9] (Kalashnikov et al.).
func Figure4Variants() []Variant {
	return []Variant{
		DISTINCT(),
		{Name: "Supervised set resemblance", Supervised: true, Measure: cluster.ResemOnly, TuneMinSim: true},
		{Name: "Supervised random walk", Supervised: true, Measure: cluster.WalkOnly, TuneMinSim: true},
		{Name: "Unsupervised combined measure", Supervised: false, Measure: cluster.Combined, TuneMinSim: true},
		{Name: "Unsupervised set resemblance", Supervised: false, Measure: cluster.ResemOnly, TuneMinSim: true},
		{Name: "Unsupervised random walk", Supervised: false, Measure: cluster.WalkOnly, TuneMinSim: true},
	}
}

// Figure4Row is one bar pair of Figure 4.
type Figure4Row struct {
	Variant  string
	Accuracy float64
	F1       float64
	// MinSim is the threshold used (tuned for non-DISTINCT variants).
	MinSim float64
}

// Figure4 evaluates every variant over all ambiguous names. Non-DISTINCT
// variants sweep Opts.MinSimGrid and keep the threshold maximising average
// accuracy, as the paper describes.
func (h *Harness) Figure4() ([]Figure4Row, error) {
	return h.figure4(Figure4Variants())
}

// figure4 evaluates an explicit variant list (exposed for ablations).
func (h *Harness) figure4(variants []Variant) ([]Figure4Row, error) {
	var rows []Figure4Row
	for _, v := range variants {
		grid := []float64{h.Opts.MinSim}
		if v.TuneMinSim {
			grid = h.Opts.MinSimGrid
		}
		best := Figure4Row{Variant: v.Name, Accuracy: -1}
		for _, ms := range grid {
			_, avg, err := h.evaluateAll(v.Supervised, v.Measure, ms)
			if err != nil {
				return nil, err
			}
			if avg.Accuracy > best.Accuracy {
				best.Accuracy = avg.Accuracy
				best.F1 = avg.F1
				best.MinSim = ms
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}

// AblationVariants compares the design choices DESIGN.md calls out beyond
// the paper's six variants: the arithmetic-mean combination and the
// single/complete-link cluster measures.
func AblationVariants() []Variant {
	return []Variant{
		DISTINCT(),
		{Name: "Arithmetic-mean combination", Supervised: true, Measure: cluster.CombinedArithmetic, TuneMinSim: true},
		{Name: "Single-link (resemblance)", Supervised: true, Measure: cluster.SingleLink, TuneMinSim: true},
		{Name: "Complete-link (resemblance)", Supervised: true, Measure: cluster.CompleteLink, TuneMinSim: true},
		{Name: "Average-link (resemblance)", Supervised: true, Measure: cluster.ResemOnly, TuneMinSim: true},
	}
}

// Ablation runs the ablation variant list, plus the threshold-free
// gap-cutting variant (which has no min-sim to tune or fix).
func (h *Harness) Ablation() ([]Figure4Row, error) {
	rows, err := h.figure4(AblationVariants())
	if err != nil {
		return nil, err
	}
	auto, err := h.autoGapRow()
	if err != nil {
		return nil, err
	}
	return append(rows, auto), nil
}

// autoGapRow evaluates per-name gap cutting (cluster.StopGap, falling back
// to the harness's min-sim) with supervised weights over all ambiguous
// names.
func (h *Harness) autoGapRow() (Figure4Row, error) {
	names := h.World.AmbiguousNames()
	ms := make([]eval.Metrics, len(names))
	for i, name := range names {
		refs := h.refs[name]
		m, err := h.matrix(name, true)
		if err != nil {
			return Figure4Row{}, err
		}
		pred, err := h.clusterRows(refs, m, cluster.Options{
			Measure: cluster.Combined, MinSim: h.Opts.MinSim, Stop: cluster.StopGap,
		})
		if err != nil {
			return Figure4Row{}, err
		}
		metrics, err := eval.Evaluate(pred, h.gold[name])
		if err != nil {
			return Figure4Row{}, err
		}
		ms[i] = metrics
	}
	avg := eval.Average(ms)
	return Figure4Row{
		Variant:  "Per-name gap cut (hybrid)",
		Accuracy: avg.Accuracy,
		F1:       avg.F1,
		MinSim:   h.Opts.MinSim,
	}, nil
}

// FormatFigure4 renders the rows as a text bar chart like the paper's
// grouped bars.
func FormatFigure4(rows []Figure4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %9s %9s %9s\n", "Variant", "accuracy", "f-measure", "min-sim")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %9.3f %9.3f %9g  %s\n", r.Variant, r.Accuracy, r.F1, r.MinSim, bar(r.F1))
	}
	return b.String()
}

// bar draws a 0..40 character bar for a [0,1] value.
func bar(v float64) string {
	n := int(v*40 + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}
