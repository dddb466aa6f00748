package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"distinct/internal/core"
	"distinct/internal/eval"
)

// point is one sub-harness run of a sweep: the sub-harness, its training
// report and its Table 2, with the wall time of each.
type point struct {
	h         *Harness
	train     *core.TrainReport
	table2    *Table2Result
	trainTime time.Duration
	evalTime  time.Duration
}

// sweep reruns the Table 2 protocol on n sub-harnesses, point i's options
// set by edit from subOptions.
func (h *Harness) sweep(n int, edit func(i int, o *Options)) ([]point, error) {
	pts := make([]point, n)
	for i := range pts {
		o := h.subOptions()
		edit(i, &o)
		var err error
		if pts[i], err = h.runPoint(o); err != nil {
			return nil, fmt.Errorf("experiments: sweep point %d: %w", i+1, err)
		}
	}
	return pts, nil
}

// runPoint builds a sub-harness under o — over this harness's world when
// o leaves the world's configuration as it is, over a regenerated world
// otherwise — then trains it and runs Table 2, timing each apart.
func (h *Harness) runPoint(o Options) (point, error) {
	var sub *Harness
	var err error
	if reflect.DeepEqual(o.World, h.Opts.World) {
		sub, err = NewHarnessWorld(h.World, o)
	} else {
		sub, err = NewHarness(o)
	}
	if err != nil {
		return point{}, err
	}
	p := point{h: sub}
	t0 := time.Now()
	if p.train, err = sub.Train(); err != nil {
		return point{}, err
	}
	p.trainTime = time.Since(t0)
	t0 = time.Now()
	if p.table2, err = sub.Table2(); err != nil {
		return point{}, err
	}
	p.evalTime = time.Since(t0)
	return p, nil
}

// NoiseRow is one point of the noise-sensitivity experiment: the world's
// cross-community collaboration probability and DISTINCT's quality there.
type NoiseRow struct {
	CrossCommunityProb float64
	Average            eval.Metrics
}

// NoiseSensitivity probes how DISTINCT degrades as the misleading linkages
// grow — the cross-community collaborations that connect same-named authors
// from different communities (the paper's Figure 5 blames exactly these for
// its mistakes). Each level regenerates the world with that
// CrossCommunityProb and reruns the full Table 2 protocol. levels nil means
// {0, 0.05, 0.1, 0.2, 0.3}.
func (h *Harness) NoiseSensitivity(levels []float64) ([]NoiseRow, error) {
	if len(levels) == 0 {
		levels = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	pts, err := h.sweep(len(levels), func(i int, o *Options) { o.World.CrossCommunityProb = levels[i] })
	if err != nil {
		return nil, err
	}
	rows := make([]NoiseRow, len(pts))
	for i, p := range pts {
		rows[i] = NoiseRow{CrossCommunityProb: levels[i], Average: p.table2.Average}
	}
	return rows, nil
}

// FormatNoise renders the noise-sensitivity rows.
func FormatNoise(rows []NoiseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %8s %10s\n", "cross-comm p", "precision", "recall", "f-measure")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12.2f %10.3f %8.3f %10.3f  %s\n",
			r.CrossCommunityProb, r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	return b.String()
}

// SeedRow is one world seed's Table 2 average.
type SeedRow struct {
	Seed    int64
	Average eval.Metrics
}

// SeedSummary aggregates a seed sweep: mean and sample standard deviation
// of the Table 2 averages across independently generated worlds.
type SeedSummary struct {
	Rows                 []SeedRow
	MeanF1, StdF1        float64
	MeanPrec, MeanRecall float64
}

// SeedSweep regenerates the world under several seeds and reruns the
// Table 2 protocol on each — the robustness check a reproduction owes its
// readers: the headline numbers must not depend on one lucky world. Each
// seed also seeds that world's training-set sampling. seeds nil means
// {1, 2, 3, 4, 5}.
func (h *Harness) SeedSweep(seeds []int64) (*SeedSummary, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	pts, err := h.sweep(len(seeds), func(i int, o *Options) { o.World.Seed, o.Seed = seeds[i], seeds[i] })
	if err != nil {
		return nil, err
	}
	sum := &SeedSummary{}
	for i, p := range pts {
		sum.Rows = append(sum.Rows, SeedRow{Seed: seeds[i], Average: p.table2.Average})
	}
	n := float64(len(sum.Rows))
	for _, r := range sum.Rows {
		sum.MeanF1 += r.Average.F1
		sum.MeanPrec += r.Average.Precision
		sum.MeanRecall += r.Average.Recall
	}
	sum.MeanF1 /= n
	sum.MeanPrec /= n
	sum.MeanRecall /= n
	if len(sum.Rows) > 1 {
		var ss float64
		for _, r := range sum.Rows {
			d := r.Average.F1 - sum.MeanF1
			ss += d * d
		}
		sum.StdF1 = math.Sqrt(ss / (n - 1))
	}
	return sum, nil
}

// FormatSeeds renders the sweep.
func FormatSeeds(s *SeedSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %8s %10s\n", "seed", "precision", "recall", "f-measure")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%6d %10.3f %8.3f %10.3f  %s\n",
			r.Seed, r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	fmt.Fprintf(&b, "mean f-measure %.3f ± %.3f (precision %.3f, recall %.3f)\n",
		s.MeanF1, s.StdF1, s.MeanPrec, s.MeanRecall)
	return b.String()
}

// CitationRow is one configuration of the citation-linkage experiment.
type CitationRow struct {
	CitationsPerPaper int
	SelfCiteProb      float64
	Average           eval.Metrics
}

// CitationLinkage measures what the citation linkage is worth. The paper's
// introduction lists citations among the linkages that disclose author
// identities ("through their coauthors, coauthors of coauthors, and
// citations"), but its Figure 2 schema carries none; this experiment
// regenerates the world with increasing citation density (self-citation
// heavy, as real citation graphs are) and reruns the Table 2 protocol.
// levels nil means {0, 2, 4} citations per paper at SelfCiteProb 0.5.
func (h *Harness) CitationLinkage(levels []int) ([]CitationRow, error) {
	if len(levels) == 0 {
		levels = []int{0, 2, 4}
	}
	pts, err := h.sweep(len(levels), func(i int, o *Options) {
		o.World.CitationsPerPaper = levels[i]
		if levels[i] > 0 {
			o.World.SelfCiteProb = 0.5
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]CitationRow, len(pts))
	for i, p := range pts {
		rows[i] = CitationRow{
			CitationsPerPaper: levels[i],
			SelfCiteProb:      p.h.Opts.World.SelfCiteProb,
			Average:           p.table2.Average,
		}
	}
	return rows, nil
}

// FormatCitations renders the rows.
func FormatCitations(rows []CitationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %10s %8s %10s\n", "cites/paper", "self-cite", "precision", "recall", "f-measure")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %10.2f %10.3f %8.3f %10.3f  %s\n",
			r.CitationsPerPaper, r.SelfCiteProb,
			r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	b.WriteString("(the paper's intro lists citations among the identity-disclosing linkages)\n")
	return b.String()
}

// ScalingRow is one point of the scaling experiment: a world size, the
// training pipeline duration there, the total disambiguation time for the
// ten ambiguous names, and the resulting quality.
type ScalingRow struct {
	Communities int
	Authors     int // per community
	References  int
	Papers      int
	TrainTime   time.Duration
	Disambig    time.Duration
	AvgF1       float64
}

// Scaling extends the paper's single timing figure (62.1 s on full DBLP)
// into a curve: it generates worlds of increasing size — same ambiguous-
// name profile, more ordinary authors around them — and measures the full
// pipeline at each scale. scales gives the multipliers over a small base
// (communities × authors); nil means {1, 2, 4}.
func (h *Harness) Scaling(scales []int) ([]ScalingRow, error) {
	if len(scales) == 0 {
		scales = []int{1, 2, 4}
	}
	pts, err := h.sweep(len(scales), func(i int, o *Options) {
		o.World.Communities = 8 * scales[i]
		o.World.AuthorsPerCommunity = 60
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ScalingRow, len(pts))
	for i, p := range pts {
		rows[i] = ScalingRow{
			Communities: p.h.Opts.World.Communities,
			Authors:     p.h.Opts.World.AuthorsPerCommunity,
			References:  p.h.World.NumReferences(),
			Papers:      p.h.World.NumPapers(),
			TrainTime:   p.trainTime,
			Disambig:    p.evalTime,
			AvgF1:       p.table2.Average.F1,
		}
	}
	return rows, nil
}

// FormatScaling renders the scaling rows.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %12s %14s %8s\n", "refs", "papers", "train", "disambiguate", "avg-f")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %12v %14v %8.3f\n",
			r.References, r.Papers, r.TrainTime.Round(time.Millisecond),
			r.Disambig.Round(time.Millisecond), r.AvgF1)
	}
	b.WriteString("(paper: training on full DBLP, 1.29M references, took 62.1 s)\n")
	return b.String()
}

// TrainSizeRow is one point of the training-size experiment.
type TrainSizeRow struct {
	// PairsPerClass is the number of positive (and negative) pairs.
	PairsPerClass int
	// ResemAccuracy is the resemblance SVM's training accuracy.
	ResemAccuracy float64
	Average       eval.Metrics
}

// TrainSizeSensitivity probes how much automatic supervision DISTINCT
// actually needs: the paper constructs 1000+1000 pairs, but the rare-name
// trick makes examples free, so the interesting question is how quickly
// quality saturates. Each size retrains on the same world and reruns the
// Table 2 protocol. sizes nil means {25, 100, 400, 1000}.
func (h *Harness) TrainSizeSensitivity(sizes []int) ([]TrainSizeRow, error) {
	if len(sizes) == 0 {
		sizes = []int{25, 100, 400, 1000}
	}
	pts, err := h.sweep(len(sizes), func(i int, o *Options) { o.TrainPositive, o.TrainNegative = sizes[i], sizes[i] })
	if err != nil {
		return nil, err
	}
	rows := make([]TrainSizeRow, len(pts))
	for i, p := range pts {
		rows[i] = TrainSizeRow{PairsPerClass: sizes[i], ResemAccuracy: p.train.ResemAccuracy, Average: p.table2.Average}
	}
	return rows, nil
}

// FormatTrainSize renders the rows.
func FormatTrainSize(rows []TrainSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %9s %10s %8s %10s\n", "pairs/class", "svm-acc", "precision", "recall", "f-measure")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %9.3f %10.3f %8.3f %10.3f  %s\n",
			r.PairsPerClass, r.ResemAccuracy,
			r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	b.WriteString("(paper: 1000 positive + 1000 negative automatic pairs)\n")
	return b.String()
}
