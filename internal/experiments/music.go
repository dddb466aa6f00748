package experiments

import (
	"context"
	"fmt"
	"strings"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/eval"
	"distinct/internal/music"
	"distinct/internal/trainset"
)

// MusicRow is one shared title's outcome in the cross-domain evaluation.
type MusicRow struct {
	Title   string
	Songs   int
	Refs    int
	Metrics eval.Metrics
}

// MusicResult is the cross-domain evaluation: the engine, unchanged, on a
// music catalog (the paper's allmusic.com motivation — "72 songs named
// 'Forgotten'"), trained on the catalog's own rare titles and thresholded
// by label-free tuning.
type MusicResult struct {
	Tracks  int
	Titles  int
	MinSim  float64 // chosen by TuneMinSim, no labels involved
	Rows    []MusicRow
	Average eval.Metrics
}

// MusicEvaluation generates a catalog and runs the full self-supervised
// pipeline on it.
func MusicEvaluation(cfg music.Config, seed int64) (*MusicResult, error) {
	cat, err := music.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	engine, err := core.NewEngineCtx(ctx, cat.DB, core.Config{
		RefRelation: music.ReferenceRelation,
		RefAttr:     music.ReferenceAttr,
		Supervised:  true,
		Measure:     cluster.Combined,
		Train: trainset.Options{
			NumPositive: 500, NumNegative: 500, Seed: seed,
			// Titles are two skewed words; parts are less diverse than
			// human names, so rarity thresholds sit higher.
			MaxFirstFreq: 8, MaxLastFreq: 8,
			Exclude: cat.AmbiguousTitles(),
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := engine.TrainCtx(ctx); err != nil {
		return nil, err
	}
	tune, err := engine.TuneMinSim(nil, 40, seed)
	if err != nil {
		return nil, err
	}

	res := &MusicResult{
		Tracks: cat.NumTracks(),
		Titles: cat.DB.Relation("Titles").Size(),
		MinSim: tune.MinSim,
	}
	var ms []eval.Metrics
	for _, title := range cat.AmbiguousTitles() {
		refs := engine.MapRefs(cat.Refs(title))
		pred, err := engine.DisambiguateRefsCtx(ctx, refs)
		if err != nil {
			return nil, fmt.Errorf("experiments: music %s: %w", title, err)
		}
		var gold eval.Clustering
		for _, g := range cat.GoldClusters(title) {
			gold = append(gold, engine.MapRefs(g))
		}
		m, err := eval.Evaluate(eval.Clustering(pred), gold)
		if err != nil {
			return nil, fmt.Errorf("experiments: music %s: %w", title, err)
		}
		res.Rows = append(res.Rows, MusicRow{
			Title: title, Songs: len(gold), Refs: len(refs), Metrics: m,
		})
		ms = append(ms, m)
	}
	res.Average = eval.Average(ms)
	return res, nil
}

// FormatMusic renders the cross-domain result.
func FormatMusic(res *MusicResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "catalog: %d titles, %d track references; tuned min-sim = %g\n",
		res.Titles, res.Tracks, res.MinSim)
	fmt.Fprintf(&b, "%-12s %6s %6s %10s %8s %10s\n", "Title", "#songs", "#refs", "precision", "recall", "f-measure")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-12s %6d %6d %10.3f %8.3f %10.3f\n",
			r.Title, r.Songs, r.Refs, r.Metrics.Precision, r.Metrics.Recall, r.Metrics.F1)
	}
	fmt.Fprintf(&b, "%-12s %6s %6s %10.3f %8.3f %10.3f\n", "average", "", "",
		res.Average.Precision, res.Average.Recall, res.Average.F1)
	return b.String()
}
