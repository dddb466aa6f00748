package core

import (
	"context"
	"reflect"
	"testing"

	"distinct/internal/reldb"
)

func TestBlocksPartition(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	blocks := mustBlocks(t, e, refs)
	seen := make(map[int]bool)
	for _, b := range blocks {
		if len(b) == 0 {
			t.Fatal("empty block")
		}
		for _, x := range b {
			if x < 0 || x >= len(refs) || seen[x] {
				t.Fatalf("bad partition %v", blocks)
			}
			seen[x] = true
		}
	}
	if len(seen) != len(refs) {
		t.Fatalf("blocks cover %d of %d refs", len(seen), len(refs))
	}
	// Cross-block pairs really have zero similarity under current weights.
	if len(blocks) > 1 {
		m := e.Similarities(refs)
		blockOf := make([]int, len(refs))
		for bi, b := range blocks {
			for _, x := range b {
				blockOf[x] = bi
			}
		}
		for i := range refs {
			for j := i + 1; j < len(refs); j++ {
				if blockOf[i] != blockOf[j] {
					if m.R[i][j] != 0 || m.W[i][j] != 0 || m.W[j][i] != 0 {
						t.Fatalf("cross-block pair (%d,%d) has nonzero similarity", i, j)
					}
				}
			}
		}
	}
}

// TestBlockedMatchesUnblocked is the exactness claim: blocking must not
// change the clustering for any positive threshold.
func TestBlockedMatchesUnblocked(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.AmbiguousNames() {
		refs := e.RefsForName(name)
		for _, minSim := range []float64{0.001, 0.005, 0.05} {
			e.SetMinSim(minSim)
			blocked, err := e.disambiguateBlocked(context.Background(), refs)
			if err != nil {
				t.Fatal(err)
			}
			plain := ClusterMatrix(refs, e.Similarities(refs), e.cfg.Measure, minSim)
			if !reflect.DeepEqual(blocked, plain) {
				t.Fatalf("%s at min-sim %v: blocked %v != plain %v", name, minSim, blocked, plain)
			}
		}
	}
}

// Zero-weight paths must not link blocks.
func TestBlocksIgnoreZeroWeightPaths(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	before := len(mustBlocks(t, e, refs))
	// Zero out every weight except the first path's: components can only
	// grow coarser or stay equal in count.
	n := len(e.Paths())
	wv := make([]float64, n)
	wv[0] = 1
	if err := e.SetWeights(wv, wv); err != nil {
		t.Fatal(err)
	}
	after := len(mustBlocks(t, e, refs))
	if after < before {
		t.Errorf("restricting paths reduced block count: %d -> %d", before, after)
	}
}

func TestBlocksSingleRef(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")[:1]
	blocks := mustBlocks(t, e, refs)
	if len(blocks) != 1 || len(blocks[0]) != 1 {
		t.Errorf("blocks = %v", blocks)
	}
	groups := mustGroups(t, e, refs)
	if len(groups) != 1 || groups[0][0] != refs[0] {
		t.Errorf("groups = %v", groups)
	}
	_ = reldb.InvalidTuple
}
