package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"distinct/internal/obs"
)

// The load-bearing property: for any matrix, measure, and threshold,
// cutting the recorded dendrogram (with fallback on inconsistent prefixes)
// is bit-identical to a direct per-threshold run.
func TestDendrogramCutMatchesDirect(t *testing.T) {
	grid := []float64{0, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(36)
		m := randomMatrix(rng, n)
		for _, meas := range allMeasures {
			d := dendrogramOf(m, Options{Measure: meas})
			if len(d.Merges) != n-1 {
				t.Fatalf("%v: dendrogram has %d merges for n=%d", meas, len(d.Merges), n)
			}
			for _, ms := range grid {
				opts := Options{Measure: meas, MinSim: ms}
				want := clustersOf(m, opts)
				opts.From = d
				got := clustersOf(m, opts)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v min-sim %v: cut mismatch\nwant %v\ngot  %v",
						meas, ms, want, got)
				}
				// When the prefix is consistent the cut alone must already
				// agree; when it isn't, Cut must refuse rather than guess.
				if cut, ok := d.cut(ms); ok {
					if !reflect.DeepEqual(want, cut) {
						t.Fatalf("%v min-sim %v: consistent cut differs from direct run", meas, ms)
					}
				}
			}
		}
	}
}

// Thresholds drawn from the recorded similarities themselves (and their
// midpoints) probe the boundaries where >= vs > bugs would hide.
func TestDendrogramCutAtRecordedBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 24
	m := randomMatrix(rng, n)
	for _, meas := range allMeasures {
		d := dendrogramOf(m, Options{Measure: meas})
		var thresholds []float64
		for i, mg := range d.Merges {
			thresholds = append(thresholds, mg.Sim)
			if i+1 < len(d.Merges) {
				thresholds = append(thresholds, (mg.Sim+d.Merges[i+1].Sim)/2)
			}
		}
		for _, ms := range thresholds {
			opts := Options{Measure: meas, MinSim: ms}
			want := clustersOf(m, opts)
			opts.From = d
			got := clustersOf(m, opts)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v min-sim %v: boundary cut mismatch", meas, ms)
			}
		}
	}
}

// A handcrafted non-monotone sequence: the prefix check must refuse any
// threshold that splits a rise-back.
func TestCutPrefixConsistency(t *testing.T) {
	d := &Dendrogram{N: 5, Merges: []DendroMerge{
		{A: 0, B: 1, Sim: 0.9, SizeA: 1, SizeB: 1},
		{A: 2, B: 3, Sim: 0.2, SizeA: 1, SizeB: 1},
		{A: 5, B: 6, Sim: 0.8, SizeA: 2, SizeB: 2}, // rises back above 0.2
		{A: 4, B: 7, Sim: 0.1, SizeA: 1, SizeB: 4},
	}}
	for _, tc := range []struct {
		minSim float64
		wantOK bool
		wantJ  int
	}{
		{0.95, true, 0},  // before any merge
		{0.9, true, 1},   // only the 0.9 merge; nothing later reaches 0.9
		{0.5, false, 0},  // prefix {0.9}, but 0.8 rises back above 0.5
		{0.15, true, 3},  // 0.9,0.2,0.8 all >= 0.15; 0.1 below
		{0.05, true, 4},  // everything
		{-0.1, false, 0}, // negative thresholds never cut
	} {
		out, ok := d.cut(tc.minSim)
		if ok != tc.wantOK {
			t.Fatalf("Cut(%v) ok=%v, want %v", tc.minSim, ok, tc.wantOK)
		}
		if !ok {
			if out != nil {
				t.Fatalf("Cut(%v) refused but returned %v", tc.minSim, out)
			}
			continue
		}
		nClusters := d.N - tc.wantJ
		if len(out) != nClusters {
			t.Fatalf("Cut(%v) gave %d clusters, want %d (prefix %d)",
				tc.minSim, len(out), nClusters, tc.wantJ)
		}
	}
}

func TestCutPrefixOrderedProfile(t *testing.T) {
	// Blob matrices collapse cleanly between the within-blob region and the
	// cross-blob region: any threshold inside the gap must cut without
	// fallback and find exactly the two blobs. (Thresholds inside the
	// within-blob region may legitimately refuse: the collective walk
	// probability grows with cluster size, so the profile rises as a blob
	// assembles.)
	m := blobs(12, 6, 0.8, 0.001)
	d := dendrogramOf(m, Options{Measure: Combined})
	for _, ms := range []float64{0.01, 0.1, 0.5} {
		out, ok := d.cut(ms)
		if !ok {
			t.Fatalf("blob dendrogram refused gap min-sim %v", ms)
		}
		if len(out) != 2 {
			t.Fatalf("min-sim %v: want the two blobs, got %v", ms, out)
		}
	}
	if out, ok := d.cut(0); !ok || len(out) != 1 {
		t.Fatalf("min-sim 0 should merge everything, got %v ok=%v", out, ok)
	}
}

func TestDendrogramCounters(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(5))
	n := 16
	m := randomMatrix(rng, n)
	d := dendrogramOf(m, Options{Measure: Combined, Obs: reg})
	if got := reg.Counter("cluster.dendrogram_runs").Value(); got != 1 {
		t.Fatalf("cluster.dendrogram_runs = %d, want 1", got)
	}
	if got := reg.Counter("cluster.runs").Value(); got != 0 {
		t.Fatalf("dendrogram run must not count as cluster.runs, got %d", got)
	}
	if got, want := reg.Counter("cluster.merges").Value(), int64(n-1); got != want {
		t.Fatalf("cluster.merges = %d, want %d", got, want)
	}

	// Force a fallback with an inconsistent handmade dendrogram and check
	// the counter and that the direct run posts cluster.runs.
	bad := &Dendrogram{N: d.N, Merges: append([]DendroMerge(nil), d.Merges...)}
	for i := range bad.Merges {
		bad.Merges[i].Sim = float64(i % 2) // 0,1,0,1,... never prefix-consistent for t in (0,1]
	}
	clustersOf(m, Options{Measure: Combined, MinSim: 0.5, From: bad, Obs: reg})
	if got := reg.Counter("cluster.dendrogram_fallbacks").Value(); got != 1 {
		t.Fatalf("cluster.dendrogram_fallbacks = %d, want 1", got)
	}
	if got := reg.Counter("cluster.runs").Value(); got != 1 {
		t.Fatalf("fallback direct run should post cluster.runs once, got %d", got)
	}
}

// gapReference is StopGap's two-run reference: the oracle's MinSim-0
// merge profile, cut at its gap (or at fallback when it has none), then a
// direct oracle run at that threshold.
func gapReference(m Matrix, meas Measure, fallback float64) [][]int {
	_, trace := agglomerateOracle(m, Options{Measure: meas, MinSim: 0})
	sims := make([]float64, len(trace))
	for i, mg := range trace {
		sims[i] = mg.Sim
	}
	cut, ok := cutAtGapSims(sims, DefaultGapRatio)
	if !ok {
		cut = fallback
	}
	out, _ := agglomerateOracle(m, Options{Measure: meas, MinSim: cut})
	return out
}

// StopGap must cluster exactly as its two-run reference.
func TestAgglomerateAutoMatchesTwoRunReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		m := randomMatrix(rng, n)
		for _, meas := range []Measure{Combined, ResemOnly} {
			got := clustersOf(m, Options{Measure: meas, MinSim: 0.01, Stop: StopGap})
			if want := gapReference(m, meas, 0.01); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %v: auto mismatch\nwant %v\ngot  %v", seed, meas, want, got)
			}
		}
	}
	// Blob worlds have crisp gaps; keep the structured case covered too.
	m := blobs(10, 5, 0.9, 0.0001)
	got := clustersOf(m, Options{Measure: Combined, MinSim: 0.01, Stop: StopGap})
	if len(got) != 2 {
		t.Fatalf("blob auto cut should find the two blobs, got %v", got)
	}
}

func TestDendrogramTrivialSizes(t *testing.T) {
	if d := dendrogramOf(Matrix{}, Options{}); d.N != 0 || len(d.Merges) != 0 {
		t.Fatalf("n=0 dendrogram: %+v", d)
	}
	m := NewMatrix(1)
	d := dendrogramOf(m, Options{})
	if len(d.Merges) != 0 {
		t.Fatalf("n=1 dendrogram has merges: %+v", d.Merges)
	}
	out, ok := d.cut(0.5)
	if !ok || !reflect.DeepEqual(out, [][]int{{0}}) {
		t.Fatalf("n=1 cut = %v ok=%v", out, ok)
	}
}
