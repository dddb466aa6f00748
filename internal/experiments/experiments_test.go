package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
)

// smallOptions is a reduced world so tests stay fast; the full Table 1
// profile is exercised by the benchmarks and the experiments CLI.
func smallOptions() Options {
	world := dblp.DefaultConfig()
	world.Communities = 4
	world.AuthorsPerCommunity = 60
	world.PapersPerAuthor = 3
	world.Ambiguous = []dblp.AmbiguousName{
		{Name: "Wei Wang", RefsPerAuthor: []int{14, 9, 6}},
		{Name: "Lei Wang", RefsPerAuthor: []int{7, 5}},
		{Name: "Bin Yu", RefsPerAuthor: []int{6, 4}},
	}
	return Options{
		World:         world,
		TrainPositive: 150,
		TrainNegative: 150,
		Seed:          3,
		MinSimGrid:    []float64{0.001, 0.005, 0.02, 0.1},
	}
}

func newTestHarness(t testing.TB) *Harness {
	t.Helper()
	h, err := NewHarness(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTable1MatchesWorld(t *testing.T) {
	h := newTestHarness(t)
	rows := h.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "Wei Wang" || rows[0].Authors != 3 || rows[0].Refs != 29 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Wei Wang") || !strings.Contains(out, "#author") {
		t.Errorf("FormatTable1:\n%s", out)
	}
}

func TestTable2RunsAndScores(t *testing.T) {
	h := newTestHarness(t)
	res, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Average.F1 < 0.6 {
		t.Errorf("average f-measure %v too low for the easy test world", res.Average.F1)
	}
	out := FormatTable2(res)
	if !strings.Contains(out, "average") || !strings.Contains(out, "min-sim") {
		t.Errorf("FormatTable2:\n%s", out)
	}
}

func TestFigure4VariantsOrderAndShape(t *testing.T) {
	h := newTestHarness(t)
	rows, err := h.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("variants = %d", len(rows))
	}
	if rows[0].Variant != "DISTINCT" {
		t.Errorf("first variant %q", rows[0].Variant)
	}
	byName := make(map[string]Figure4Row)
	for _, r := range rows {
		byName[r.Variant] = r
		if r.Accuracy < 0 || r.Accuracy > 1 || r.F1 < 0 || r.F1 > 1 {
			t.Errorf("%s: out-of-range scores %+v", r.Variant, r)
		}
	}
	t.Logf("\n%s", FormatFigure4(rows))
	// The headline shape: DISTINCT at least matches every single-measure
	// unsupervised baseline.
	d := byName["DISTINCT"]
	for _, base := range []string{"Unsupervised set resemblance", "Unsupervised random walk"} {
		if d.F1+1e-9 < byName[base].F1 {
			t.Errorf("DISTINCT f-measure %.3f below baseline %s %.3f", d.F1, base, byName[base].F1)
		}
	}
	out := FormatFigure4(rows)
	if !strings.Contains(out, "DISTINCT") || !strings.Contains(out, "#") {
		t.Errorf("FormatFigure4:\n%s", out)
	}
}

func TestAblationRuns(t *testing.T) {
	h := newTestHarness(t)
	rows, err := h.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	// The variant list plus the threshold-free gap-cutting row.
	if len(rows) != len(AblationVariants())+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Variant != "Per-name gap cut (hybrid)" {
		t.Errorf("auto row = %+v", last)
	}
}

func TestFigure5AnnotatesMistakes(t *testing.T) {
	h := newTestHarness(t)
	res, err := h.Figure5("Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if res.GoldAuthors != 3 {
		t.Errorf("gold authors %d", res.GoldAuthors)
	}
	total := 0
	for _, c := range res.Clusters {
		sum := 0
		for _, p := range c.Parts {
			sum += p.Count
		}
		if sum != c.Size {
			t.Errorf("cluster size %d != parts sum %d", c.Size, sum)
		}
		total += c.Size
	}
	if total != 29 {
		t.Errorf("clusters cover %d refs, want 29", total)
	}
	text := FormatFigure5(res)
	if !strings.Contains(text, "Wei Wang") || !strings.Contains(text, "cluster 1") {
		t.Errorf("FormatFigure5:\n%s", text)
	}
	dot := DOTFigure5(res)
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "n0 [label=") {
		t.Errorf("DOTFigure5:\n%s", dot)
	}
	if _, err := h.Figure5("No Such Name"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTimingReports(t *testing.T) {
	h := newTestHarness(t)
	tm, err := h.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total <= 0 || tm.References <= 0 {
		t.Errorf("timing = %+v", tm)
	}
	out := FormatTiming(tm)
	if !strings.Contains(out, "62.1") {
		t.Errorf("FormatTiming missing paper reference:\n%s", out)
	}
}

// TestHarnessCaches: each name's similarity matrix is computed once per
// weighting and then shared, the two weightings are kept apart, a
// computation that fails is not kept, and training runs once.
func TestHarnessCaches(t *testing.T) {
	h := newTestHarness(t)
	matrix := func(name string, supervised bool) cluster.Matrix {
		t.Helper()
		m, err := h.matrix(name, supervised)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := matrix("Wei Wang", true)
	if b := matrix("Wei Wang", true); &a.Cells[0] != &b.Cells[0] {
		t.Error("supervised matrix not cached")
	}
	u := matrix("Wei Wang", false)
	if &u.Cells[0] == &a.Cells[0] || slices.Equal(u.Cells, a.Cells) {
		t.Error("uniform-weight matrix shares or equals the supervised one")
	}
	if v := matrix("Wei Wang", false); &v.Cells[0] != &u.Cells[0] {
		t.Error("uniform-weight matrix not cached")
	}

	// A computation that times out is returned as an error and not kept;
	// the next call without the budget computes and keeps the matrix.
	h.Opts.NameTimeout = time.Nanosecond
	if _, err := h.matrix("Lei Wang", true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns budget: err = %v, want deadline exceeded", err)
	}
	if _, ok := h.sims[simKey{"Lei Wang", true}]; ok {
		t.Fatal("timed-out computation was cached")
	}
	h.Opts.NameTimeout = 0
	c := matrix("Lei Wang", true)
	if d := matrix("Lei Wang", true); &c.Cells[0] != &d.Cells[0] {
		t.Error("matrix computed after a timeout not cached")
	}

	r1, err := h.Train()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Train()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Train not cached")
	}
}

func TestDefaultMinSimGrid(t *testing.T) {
	g := DefaultMinSimGrid()
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not increasing")
		}
	}
}
