package cluster

import (
	"math"
	"reflect"
	"testing"
)

func TestCutAtGapFindsCollapse(t *testing.T) {
	sims := []float64{0.04, 0.03, 0.02, 0.00001, 0.000005}
	cut, ok := cutAtGapSims(sims, 10)
	if !ok {
		t.Fatal("no gap found")
	}
	want := math.Sqrt(0.02 * 0.00001)
	if math.Abs(cut-want) > 1e-12 {
		t.Errorf("cut = %v, want %v", cut, want)
	}
	// The cut separates the same-object merges from the rest.
	if cut >= 0.02 || cut <= 0.00001 {
		t.Errorf("cut %v outside the gap", cut)
	}
}

func TestCutAtGapNoGap(t *testing.T) {
	flat := []float64{0.03, 0.025, 0.02}
	if _, ok := cutAtGapSims(flat, 10); ok {
		t.Error("gap found in flat profile")
	}
	if _, ok := cutAtGapSims([]float64{0.5}, 10); ok {
		t.Error("gap found in single-merge profile")
	}
	if _, ok := cutAtGapSims(nil, 10); ok {
		t.Error("gap found in empty profile")
	}
}

func TestCutAtGapIgnoresUpwardSteps(t *testing.T) {
	// Non-monotone profile: the upward step 0.001->0.5 must not register.
	sims := []float64{0.04, 0.001, 0.5, 0.4}
	cut, ok := cutAtGapSims(sims, 10)
	if !ok {
		t.Fatal("no gap found")
	}
	if math.Abs(cut-math.Sqrt(0.04*0.001)) > 1e-12 {
		t.Errorf("cut = %v", cut)
	}
}

func TestCutAtGapZeroSims(t *testing.T) {
	sims := []float64{0.01, 0}
	cut, ok := cutAtGapSims(sims, 10)
	if !ok || cut <= 0 {
		t.Errorf("zero-sim tail not handled: cut=%v ok=%v", cut, ok)
	}
}

func TestCutAtGapAllIdenticalSims(t *testing.T) {
	// Every merge at the same similarity: every ratio is exactly 1, so no
	// gap exists at any minRatio — including the floor minRatio<=1, which
	// cutAtGapSims resets to 10.
	same := []float64{0.02, 0.02, 0.02, 0.02}
	if cut, ok := cutAtGapSims(same, 10); ok {
		t.Errorf("gap found in identical profile: cut=%v", cut)
	}
	if cut, ok := cutAtGapSims(same, 0); ok {
		t.Errorf("gap found in identical profile at floored minRatio: cut=%v", cut)
	}
	// All-zero similarities clamp to the floor on both sides: still ratio 1.
	zeros := []float64{0, 0, 0}
	if cut, ok := cutAtGapSims(zeros, 10); ok {
		t.Errorf("gap found in all-zero profile: cut=%v", cut)
	}
}

func TestAgglomerateAutoTrivialSizes(t *testing.T) {
	// blobs with mid beyond n: every pair gets the within-blob similarity.
	gap := Options{Measure: Combined, Stop: StopGap}
	// A single reference has no merges at all: one singleton group.
	got := clustersOf(blobs(1, 4, 0.8, 0.0003), gap)
	if !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Errorf("n=1 clustering = %v", got)
	}
	// Two references produce one merge — below the two needed for an
	// interior gap — so the fallback threshold decides.
	m := blobs(2, 4, 0.8, 0.0003)
	got = clustersOf(m, gap)
	if !reflect.DeepEqual(got, [][]int{{0, 1}}) {
		t.Errorf("n=2 fallback-0 clustering = %v", got)
	}
	gap.MinSim = 5
	got = clustersOf(m, gap)
	if !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Errorf("n=2 high-fallback clustering = %v", got)
	}
}

func TestAgglomerateAutoAllIdenticalSims(t *testing.T) {
	// An all-identical similarity matrix has a flat merge profile under
	// single or complete link; average-link chaining keeps it within one
	// order of magnitude, so no spurious gap may fire and the fallback
	// governs: 0 merges everything, above-constant splits everything.
	flat := NewMatrix(5)
	for k := range flat.Cells {
		flat.Cells[k] = Cell{R: 0.3, WAB: 0.3, WBA: 0.3}
	}
	got := clustersOf(flat, Options{Measure: Combined, Stop: StopGap})
	if len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("identical sims with fallback 0: %v", got)
	}
	got = clustersOf(flat, Options{Measure: Combined, MinSim: 1, Stop: StopGap})
	if len(got) != 5 {
		t.Errorf("identical sims with fallback above the constant: %v", got)
	}
}

func TestAgglomerateAutoOnBlobs(t *testing.T) {
	// Two tight blobs, weak cross links: auto cutting must find 2 clusters
	// without any threshold input. Their collapse clears a ratio of 10 too.
	gap := Options{Measure: Combined, Stop: StopGap}
	m := blobs(8, 4, 0.8, 0.0003)
	got := clustersOf(m, gap)
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("auto clustering = %v", got)
	}
	if _, ok := cutAtGapSims(dendrogramOf(m, gap).sims(), 10); !ok {
		t.Error("no ratio-10 gap between the blobs")
	}
	// A uniform blob has no gap, not even at ratio 10; with fallback 0 it
	// collapses to one cluster, with a high fallback it stays singletons.
	uni := blobs(6, 3, 0.5, 0.45)
	if cut, ok := cutAtGapSims(dendrogramOf(uni, gap).sims(), 10); ok {
		t.Errorf("ratio-10 gap in a uniform blob: cut=%v", cut)
	}
	got = clustersOf(uni, gap)
	if len(got) != 1 {
		t.Errorf("uniform blob split: %v", got)
	}
	gap.MinSim = 5
	got = clustersOf(uni, gap)
	if len(got) != 6 {
		t.Errorf("high fallback merged: %v", got)
	}
	if clustersOf(Matrix{}, gap) != nil {
		t.Error("n=0 returned clusters")
	}
}
