package core

import (
	"context"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/obs"
	"distinct/internal/reldb"
)

func TestPathSimilaritiesAndCombine(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")[:12]
	pm := mustPathSims(t, e, refs)
	if pm.NumRefs() != 12 {
		t.Fatalf("NumRefs = %d", pm.NumRefs())
	}
	if len(pm.R) != len(e.Paths()) || len(pm.W) != len(e.Paths()) {
		t.Fatal("per-path matrix count mismatch")
	}
	// Per-path resemblance symmetric and bounded.
	for p := range pm.R {
		for i := range refs {
			for j := range refs {
				if pm.R[p][i][j] != pm.R[p][j][i] {
					t.Fatalf("path %d resemblance asymmetric", p)
				}
				if pm.R[p][i][j] < 0 || pm.R[p][i][j] > 1+1e-9 {
					t.Fatalf("path %d resemblance out of range: %v", p, pm.R[p][i][j])
				}
				if pm.W[p][i][j] < 0 {
					t.Fatalf("negative walk prob")
				}
			}
		}
	}
	// Combine under the engine's weights reproduces Similarities bit for
	// bit: both accumulate per-path contributions in ascending path order.
	rw, ww := e.Weights()
	got := Combine(pm, rw, ww)
	want := e.Similarities(refs)
	for i := range refs {
		for j := range refs {
			if got.R[i][j] != want.R[i][j] {
				t.Fatalf("Combine R[%d][%d] = %v, Similarities %v", i, j, got.R[i][j], want.R[i][j])
			}
			if got.W[i][j] != want.W[i][j] {
				t.Fatalf("Combine W[%d][%d] = %v, Similarities %v", i, j, got.W[i][j], want.W[i][j])
			}
		}
	}
	// Zero weights zero out the combination.
	zero := make([]float64, len(rw))
	z := Combine(pm, zero, zero)
	for i := range refs {
		for j := range refs {
			if z.R[i][j] != 0 || z.W[i][j] != 0 {
				t.Fatal("zero weights produced nonzero similarity")
			}
		}
	}
	// Empty matrices.
	if (&PathMatrices{}).NumRefs() != 0 {
		t.Error("empty PathMatrices NumRefs != 0")
	}
}

// TestPairsScoredSameForPathSimsAndSimilarities: sim.pairs_scored counts
// the kernel's results on weighted paths only, whether they come from
// similarities' row pass or from PathSimilaritiesCtx, which fills every
// path; a repeated pass counts again.
func TestPairsScoredSameForPathSimsAndSimilarities(t *testing.T) {
	w := testWorld(t)
	// scored reports what each of two passes of run over "Wei Wang" adds
	// to sim.pairs_scored.
	scored := func(halfWeighted bool, run func(*Engine, []reldb.TupleID)) (first, second int64) {
		reg := obs.NewRegistry()
		c := engineConfig(w, false)
		c.Obs = reg
		e, err := NewEngineCtx(context.Background(), w.DB, c)
		if err != nil {
			t.Fatal(err)
		}
		if halfWeighted {
			resem, walk := e.Weights()
			for p := 0; p < len(resem); p += 2 {
				resem[p], walk[p] = 0, 0
			}
			if err := e.SetWeights(resem, walk); err != nil {
				t.Fatal(err)
			}
		}
		refs := e.RefsForName("Wei Wang")
		run(e, refs)
		first = reg.Counter("sim.pairs_scored").Value()
		run(e, refs)
		return first, reg.Counter("sim.pairs_scored").Value() - first
	}
	sims := func(e *Engine, refs []reldb.TupleID) { e.Similarities(refs) }
	pathSims := func(e *Engine, refs []reldb.TupleID) { mustPathSims(t, e, refs) }
	all, _ := scored(false, sims)
	half, halfAgain := scored(true, sims)
	perPath, perPathAgain := scored(true, pathSims)
	if half == 0 || half >= all {
		t.Fatalf("half-weighted count %d, all-weighted %d: want 0 < half < all", half, all)
	}
	if perPath != half {
		t.Fatalf("pairs_scored by PathSimilaritiesCtx = %d, by Similarities = %d", perPath, half)
	}
	if halfAgain != half || perPathAgain != half {
		t.Fatalf("second pass added %d by Similarities, %d by PathSimilaritiesCtx; want %d each", halfAgain, perPathAgain, half)
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

func TestClusterMatrixMapsIndexes(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Bin Yu")
	m := e.Similarities(refs)
	groups := ClusterMatrix(refs, m, cluster.Combined, 0.005)
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
