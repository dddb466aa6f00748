package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"distinct/internal/obs/trace"
)

func TestTraceRecordsMerges(t *testing.T) {
	m := blobs(4, 2, 0.9, 0.001)
	out := clustersOf(m, Options{Measure: Combined, MinSim: 0.05})
	if len(out) != 2 {
		t.Fatalf("clusters %v", out)
	}
	// The dendrogram records every merge; the first two (0+1 and 2+3, in
	// some order) are the ones at or above min-sim, joining singletons.
	merges := dendroMerges(dendrogramOf(m, Options{Measure: Combined}))
	if len(merges) != 3 {
		t.Fatalf("dendrogram has %d merges, want 3", len(merges))
	}
	for i, mg := range merges {
		if above := mg.Sim >= 0.05; above != (i < 2) {
			t.Errorf("merge %d at sim %v: on the wrong side of min-sim", i, mg.Sim)
		}
		if i < 2 && (len(mg.A) != 1 || len(mg.B) != 1) {
			t.Errorf("unexpected merge %v+%v", mg.A, mg.B)
		}
	}
}

func TestTraceDescendingSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 12)
	merges := dendroMerges(dendrogramOf(m, Options{Measure: Combined}))
	if len(merges) != 11 {
		t.Fatalf("full merge needs 11 steps, got %d", len(merges))
	}
	// Agglomerative merges are not strictly monotone in general (a merged
	// cluster can form a better pair than any pre-merge pair under
	// average-link-style measures), but the first merge must be the global
	// best pair and every merge must carry a valid similarity.
	for i, mg := range merges {
		if mg.Sim < 0 {
			t.Errorf("merge %d has negative sim", i)
		}
		if len(mg.A)+len(mg.B) < 2 {
			t.Errorf("merge %d malformed", i)
		}
	}
	best := 0.0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if s := similarity(at(m, i, j), 1, 1, Combined); s > best {
				best = s
			}
		}
	}
	if merges[0].Sim != best {
		t.Errorf("first merge sim %v != global best pair %v", merges[0].Sim, best)
	}
}

// TestTraceOffMatchesOn: recording merge events into a span must not
// change the clustering, and the span gets one "merge" event per merge
// plus the final "cut".
func TestTraceOffMatchesOn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 10)
	opts := Options{Measure: Combined, MinSim: 0.1}
	a := clustersOf(m, opts)
	tr := trace.New(trace.Options{})
	opts.Span = tr.Start("cluster")
	b := clustersOf(m, opts)
	if !reflect.DeepEqual(a, b) {
		t.Error("tracing changed the clustering")
	}
	// Merge count consistency: n - #clusters merges happened.
	if _, events := tr.Counts(); events != 10-len(a)+1 {
		t.Errorf("span holds %d events for %d clusters", events, len(a))
	}
}
