package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/obs"
	"distinct/internal/reldb"
)

// TestSimilaritiesCtx holds the weights-as-argument entry point to the
// engine's own scoring: under a trained engine's weights it reproduces
// Similarities bit for bit, and under uniform weights a freshly opened,
// untrained engine's Similarities (the from-scratch oracle). All-zero
// weights score nothing, and malformed weights are refused.
func TestSimilaritiesCtx(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(ctx); err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	n := len(e.Paths())
	rw, ww := e.Weights()
	uniform := make([]float64, n)
	for p := range uniform {
		uniform[p] = 1 / float64(n)
	}
	if slices.Equal(rw, uniform) {
		t.Fatal("training left uniform weights: the two oracles below coincide")
	}
	sims := func(resem, walk []float64) cluster.Matrix {
		t.Helper()
		m, err := e.SimilaritiesCtx(ctx, refs, resem, walk)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	same := func(what string, got, want cluster.Matrix) {
		t.Helper()
		if got.N != len(refs) || want.N != len(refs) || len(got.Cells) != len(want.Cells) {
			t.Fatalf("%s: %d and %d references for %d refs", what, got.N, want.N, len(refs))
		}
		for k := range got.Cells {
			if got.Cells[k] != want.Cells[k] {
				t.Fatalf("%s: cell %d = %+v, want %+v", what, k, got.Cells[k], want.Cells[k])
			}
		}
	}

	same("engine weights", sims(rw, ww), e.Similarities(refs))
	fresh := newTestEngine(t, w, false)
	if !slices.Equal(fresh.RefsForName("Wei Wang"), refs) {
		t.Fatal("a fresh engine maps the references differently")
	}
	same("uniform weights", sims(uniform, uniform), fresh.Similarities(refs))
	if r, wk := e.Weights(); !slices.Equal(r, rw) || !slices.Equal(wk, ww) {
		t.Fatal("SimilaritiesCtx changed the engine's weights")
	}

	zero := make([]float64, n)
	same("zero weights", sims(zero, zero), cluster.NewMatrix(len(refs)))

	neg := slices.Clone(rw)
	neg[1] = -0.5
	nan := slices.Clone(ww)
	nan[2] = math.NaN()
	for _, tc := range []struct {
		name        string
		resem, walk []float64
	}{
		{"short resemblance", rw[:n-1], ww},
		{"long walk", rw, append(slices.Clone(ww), 0)},
		{"negative", neg, ww},
		{"NaN", rw, nan},
	} {
		m, err := e.SimilaritiesCtx(ctx, refs, tc.resem, tc.walk)
		if err == nil || m.Cells != nil {
			t.Errorf("%s weights: err = %v, %d matrix cells; want an error and no matrix", tc.name, err, len(m.Cells))
		}
	}
}

// TestPairsScoredFollowWeights: sim.pairs_scored counts the kernel's
// results on the paths the weights passed in use (a nonzero resemblance or
// walk weight), so a half-weighted call counts more than nothing and less
// than an all-weighted one; a repeated call counts again.
func TestPairsScoredFollowWeights(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	reg := obs.NewRegistry()
	c := engineConfig(w, false)
	c.Obs = reg
	e, err := NewEngineCtx(ctx, w.DB, c)
	if err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	all, _ := e.Weights()
	half := slices.Clone(all)
	for p := 0; p < len(half); p += 2 {
		half[p] = 0
	}
	counter := reg.Counter("sim.pairs_scored")
	scored := func(resem, walk []float64) int64 {
		t.Helper()
		before := counter.Value()
		if _, err := e.SimilaritiesCtx(ctx, refs, resem, walk); err != nil {
			t.Fatal(err)
		}
		return counter.Value() - before
	}
	allN := scored(all, all)
	halfN := scored(half, half)
	if halfN == 0 || halfN >= allN {
		t.Fatalf("half-weighted count %d, all-weighted %d: want 0 < half < all", halfN, allN)
	}
	if again := scored(half, half); again != halfN {
		t.Fatalf("repeated half-weighted call added %d, want %d", again, halfN)
	}
	if walkOnly := scored(half, all); walkOnly != allN {
		t.Fatalf("walk weights on every path counted %d, want %d", walkOnly, allN)
	}
	before := counter.Value()
	e.Similarities(refs)
	if got := counter.Value() - before; got != allN {
		t.Fatalf("Similarities under the engine's uniform weights counted %d, want %d", got, allN)
	}
}

func TestMergeProfile(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	prof := e.MergeProfile(refs)
	// A full profile merges n refs down to one cluster: n-1 steps.
	if len(prof) != len(refs)-1 {
		t.Fatalf("profile has %d steps for %d refs", len(prof), len(refs))
	}
	if prof[0].SizeA != 1 || prof[0].SizeB != 1 {
		t.Errorf("first merge sizes %d+%d, want singletons", prof[0].SizeA, prof[0].SizeB)
	}
	last := prof[len(prof)-1]
	if last.SizeA+last.SizeB != len(refs) {
		t.Errorf("last merge forms %d refs, want %d", last.SizeA+last.SizeB, len(refs))
	}
	// Short inputs.
	if e.MergeProfile(refs[:1]) != nil {
		t.Error("profile for one ref should be nil")
	}
	if e.MergeProfile(nil) != nil {
		t.Error("profile for no refs should be nil")
	}
}

// clusterAt is the direct run the engine's clustering paths are held to:
// refs clustered from their matrix m under measure at minSim.
func clusterAt(refs []reldb.TupleID, m cluster.Matrix, measure cluster.Measure, minSim float64) [][]reldb.TupleID {
	res, err := cluster.Run(context.Background(), m, cluster.Options{Measure: measure, MinSim: minSim})
	if err != nil {
		panic(err)
	}
	return groupRefs(refs, res.Clusters)
}

func TestClusterRefsMapsIndexes(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	e.SetMinSim(0.005)
	refs := e.RefsForName("Bin Yu")
	m := e.Similarities(refs)
	res, err := e.clusterStage(context.Background(), m, cluster.StopMinSim)
	if err != nil {
		t.Fatal(err)
	}
	groups := groupRefs(refs, res.Clusters)
	seen := map[int32]bool{}
	total := 0
	for _, g := range groups {
		for _, r := range g {
			if seen[int32(r)] {
				t.Fatal("duplicate ref across groups")
			}
			seen[int32(r)] = true
			total++
		}
	}
	if total != len(refs) {
		t.Fatalf("groups cover %d of %d refs", total, len(refs))
	}
}

func TestEngineTimingsAccessor(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	tm := e.Timings()
	if tm.Expand <= 0 || tm.Enumerate < 0 {
		t.Errorf("construction timings %+v not recorded", tm)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	tm = e.Timings()
	if tm.TotalTrain <= 0 || tm.TrainSVM <= 0 {
		t.Errorf("training timings %+v not recorded", tm)
	}
}
