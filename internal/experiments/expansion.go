package experiments

import (
	"fmt"
	"strings"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
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
// "without" engines skip all expandable attributes, leaving only the
// structural joins (coauthors, venues). The ablation is run both
// supervised (trained path weights, fixed min-sim for the DISTINCT
// configuration) and unsupervised (uniform weights, per-configuration
// tuned min-sim, per the Figure 4 protocol) — the interesting contrast is
// unsupervised, where the expanded value paths inject noise that only the
// SVM weighting can neutralise.
func (h *Harness) ExpansionAblation() ([]ExpansionRow, error) {
	noExpand := []string{
		dblp.TitleAttr,
		"Proceedings.year", "Proceedings.location", "Conferences.publisher",
	}
	configs := []struct {
		label      string
		skip       []string
		supervised bool
	}{
		{label: "supervised, with expansion (DISTINCT)", skip: []string{dblp.TitleAttr}, supervised: true},
		{label: "supervised, without expansion", skip: noExpand, supervised: true},
		{label: "unsupervised, with expansion", skip: []string{dblp.TitleAttr}},
		{label: "unsupervised, without expansion", skip: noExpand},
	}
	ctx := h.Opts.ctx()
	var rows []ExpansionRow
	for _, cfg := range configs {
		engine, err := core.NewEngineCtx(ctx, h.World.DB, core.Config{
			RefRelation: dblp.ReferenceRelation,
			RefAttr:     dblp.ReferenceAttr,
			SkipExpand:  cfg.skip,
			Supervised:  cfg.supervised,
			Train: trainset.Options{
				NumPositive: h.Opts.TrainPositive,
				NumNegative: h.Opts.TrainNegative,
				Exclude:     h.World.AmbiguousNames(),
				Seed:        h.Opts.Seed,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: expansion ablation %q: %w", cfg.label, err)
		}
		if cfg.supervised {
			if _, err := engine.TrainCtx(ctx); err != nil {
				return nil, err
			}
		}
		// Each name's combined matrix depends on the weights only, not on
		// the threshold, so it is computed once and cut at every grid point.
		resemW, walkW := engine.Weights()
		type block struct {
			refs []reldb.TupleID
			m    cluster.Matrix
			gold eval.Clustering
		}
		var blocks []block
		for _, name := range h.World.AmbiguousNames() {
			refs := engine.RefsForName(name)
			m, err := engine.SimilaritiesCtx(ctx, refs, resemW, walkW)
			if err != nil {
				return nil, fmt.Errorf("experiments: expansion ablation %q: %s: %w", cfg.label, name, err)
			}
			var gold eval.Clustering
			for _, c := range h.World.GoldClusters(name) {
				gold = append(gold, engine.MapRefs(c))
			}
			blocks = append(blocks, block{refs, m, gold})
		}
		evalAt := func(minSim float64) (eval.Metrics, error) {
			ms := make([]eval.Metrics, len(blocks))
			for i, b := range blocks {
				pred := core.ClusterMatrix(b.refs, b.m, cluster.Combined, minSim)
				m, err := eval.Evaluate(eval.Clustering(pred), b.gold)
				if err != nil {
					return eval.Metrics{}, err
				}
				ms[i] = m
			}
			return eval.Average(ms), nil
		}
		// Fixed threshold for the DISTINCT configuration; per-config tuned
		// threshold elsewhere, matching the paper's Figure 4 protocol.
		var best eval.Metrics
		if cfg.supervised && len(cfg.skip) == 1 {
			if best, err = evalAt(h.Opts.MinSim); err != nil {
				return nil, err
			}
		} else {
			best.Accuracy = -1
			for _, ms := range h.Opts.MinSimGrid {
				avg, err := evalAt(ms)
				if err != nil {
					return nil, err
				}
				if avg.Accuracy > best.Accuracy {
					best = avg
				}
			}
		}
		rows = append(rows, ExpansionRow{
			Label:    cfg.label,
			NumPaths: len(engine.Paths()),
			Average:  best,
		})
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
