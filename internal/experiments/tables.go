package experiments

import (
	"fmt"
	"strings"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/eval"
)

// Table1Row is one row of the paper's Table 1: a name shared by several
// authors, with identity and reference counts.
type Table1Row struct {
	Name    string
	Authors int
	Refs    int
}

// Table1 reports the ambiguous-name dataset. With the default world this
// reproduces the paper's Table 1 exactly (the profile is injected).
func (h *Harness) Table1() []Table1Row {
	names := h.World.AmbiguousNames()
	rows := make([]Table1Row, len(names))
	for i, name := range names {
		rows[i] = Table1Row{
			Name:    name,
			Authors: len(h.gold[name]),
			Refs:    len(h.refs[name]),
		}
	}
	return rows
}

// FormatTable1 renders Table 1 like the paper.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %6s\n", "Name", "#author", "#ref")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8d %6d\n", r.Name, r.Authors, r.Refs)
	}
	return b.String()
}

// Table2Row is one row of the paper's Table 2: DISTINCT's accuracy on one
// ambiguous name, plus two extension metrics the paper predates (B-cubed
// f-measure and the Adjusted Rand Index).
type Table2Row struct {
	Name    string
	Metrics eval.Metrics
	BCubedF float64
	ARI     float64
}

// Table2Result is the full Table 2 plus the average row.
type Table2Result struct {
	Rows    []Table2Row
	Average eval.Metrics
	MinSim  float64
}

// Table2 runs the full DISTINCT configuration (supervised, combined
// measure, fixed min-sim) on every ambiguous name, clustering each once
// for its metrics and the extension metrics alike.
func (h *Harness) Table2() (*Table2Result, error) {
	d := DISTINCT()
	preds, ms, err := h.evaluateAll(d.Supervised, cluster.Options{Measure: d.Measure, MinSim: h.Opts.MinSim})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Average: eval.Average(ms), MinSim: h.Opts.MinSim}
	for i, name := range h.World.AmbiguousNames() {
		row := Table2Row{Name: name, Metrics: ms[i]}
		if b, err := eval.BCubed(preds[i], h.gold[name]); err == nil {
			row.BCubedF = b.F1
		}
		if ari, err := eval.AdjustedRand(preds[i], h.gold[name]); err == nil {
			row.ARI = ari
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatTable2 renders Table 2 like the paper.
func FormatTable2(res *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s %9s %9s\n", "Name", "precision", "recall", "f-measure")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-22s %9.3f %9.3f %9.3f\n", r.Name, r.Metrics.Precision, r.Metrics.Recall, r.Metrics.F1)
	}
	fmt.Fprintf(&b, "%-22s %9.3f %9.3f %9.3f\n", "average", res.Average.Precision, res.Average.Recall, res.Average.F1)
	fmt.Fprintf(&b, "(min-sim = %g)\n", res.MinSim)
	return b.String()
}

// TimingResult reports the durations of the training pipeline stages,
// mirroring the paper's "the whole process takes 62.1 seconds" for
// training-set construction plus SVM training on full DBLP.
type TimingResult struct {
	References int
	Papers     int
	TrainSet   time.Duration
	Features   time.Duration
	TrainSVM   time.Duration
	Total      time.Duration
}

// Timing trains (if needed) and reports stage durations.
func (h *Harness) Timing() (*TimingResult, error) {
	rep, err := h.Train()
	if err != nil {
		return nil, err
	}
	return &TimingResult{
		References: h.World.NumReferences(),
		Papers:     h.World.NumPapers(),
		TrainSet:   rep.Timings.TrainSet,
		Features:   rep.Timings.Features,
		TrainSVM:   rep.Timings.TrainSVM,
		Total:      rep.Timings.TotalTrain,
	}, nil
}

// FormatTiming renders the timing result with the paper's reference number.
func FormatTiming(t *TimingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "world: %d papers, %d references\n", t.Papers, t.References)
	fmt.Fprintf(&b, "training-set construction: %v\n", t.TrainSet)
	fmt.Fprintf(&b, "feature extraction:        %v\n", t.Features)
	fmt.Fprintf(&b, "SVM training:              %v\n", t.TrainSVM)
	fmt.Fprintf(&b, "total:                     %v\n", t.Total)
	b.WriteString("(paper: 62.1 s for the whole training process on full DBLP, 1.29M references)\n")
	return b.String()
}
