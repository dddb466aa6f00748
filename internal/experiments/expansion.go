package experiments

import (
	"fmt"
	"strings"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/eval"
)

// ExpansionRow is one configuration of the attribute-expansion ablation.
type ExpansionRow struct {
	Label    string
	NumPaths int
	Average  eval.Metrics
}

// ExpansionAblation ablates Section 2.1 of the paper: treating every
// distinct attribute value (publisher, year, location) as a tuple of a
// virtual relation, so value sharing becomes ordinary linkage. The
// "without" configurations run on a sub-harness over the same world whose
// engine skips all expandable attributes, leaving only the structural
// joins (coauthors, venues). The ablation is run both supervised (trained
// path weights, fixed min-sim for the DISTINCT configuration) and
// unsupervised (uniform weights, per-configuration tuned min-sim, per the
// Figure 4 protocol) — the interesting contrast is unsupervised, where the
// expanded value paths inject noise that only the SVM weighting can
// neutralise.
func (h *Harness) ExpansionAblation() ([]ExpansionRow, error) {
	without, err := newHarness(h.World, h.subOptions(), []string{
		dblp.TitleAttr,
		"Proceedings.year", "Proceedings.location", "Conferences.publisher",
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: expansion ablation: %w", err)
	}
	tuned := func(supervised bool) Variant {
		return Variant{Supervised: supervised, Measure: cluster.Combined, TuneMinSim: true}
	}
	configs := []struct {
		label string
		h     *Harness
		v     Variant
	}{
		{"supervised, with expansion (DISTINCT)", h, DISTINCT()},
		{"supervised, without expansion", without, tuned(true)},
		{"unsupervised, with expansion", h, tuned(false)},
		{"unsupervised, without expansion", without, tuned(false)},
	}
	rows := make([]ExpansionRow, len(configs))
	for i, c := range configs {
		avg, _, err := c.h.best(c.v)
		if err != nil {
			return nil, fmt.Errorf("experiments: expansion ablation %q: %w", c.label, err)
		}
		rows[i] = ExpansionRow{Label: c.label, NumPaths: len(c.h.engine.Paths()), Average: avg}
	}
	return rows, nil
}

// FormatExpansion renders the ablation.
func FormatExpansion(rows []ExpansionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %7s %10s %8s %10s\n", "Configuration", "#paths", "precision", "recall", "f-measure")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-38s %7d %10.3f %8.3f %10.3f  %s\n",
			r.Label, r.NumPaths, r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	return b.String()
}
