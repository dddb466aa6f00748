package core

import (
	"context"
	"fmt"
	"testing"

	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
)

// fakePM builds a PathMatrices of the given shape (contents irrelevant to
// the cache, which treats matrices as opaque).
func fakePM(numPaths, n int) *PathMatrices { return NewPathMatrices(numPaths, n) }

// TestMatrixCacheUnit exercises what the matrix cache adds to vlru: a
// block hits only under the same refs, in the same order, and the same path
// count, and the byte budget prices a block at its flat matrices plus row
// headers.
func TestMatrixCacheUnit(t *testing.T) {
	refsA := []reldb.TupleID{1, 2, 3}
	pmA := fakePM(2, 3)
	c := newMatrixCache(DefaultMatrixCacheBytes)
	c.Put(matKey(refsA, 2), 0, pmA)
	for _, probe := range []struct {
		what string
		refs []reldb.TupleID
		np   int
		hit  bool
	}{
		{"same block", refsA, 2, true},
		{"different refs", []reldb.TupleID{4, 5, 6}, 2, false},
		{"different path count", refsA, 3, false},
		{"longer block sharing the prefix", []reldb.TupleID{1, 2, 3, 0}, 2, false},
		{"same refs reordered", []reldb.TupleID{3, 2, 1}, 2, false},
	} {
		pm, _ := c.Get(matKey(probe.refs, probe.np), 0, 0)
		if (pm == pmA) != probe.hit {
			t.Errorf("%s: hit = %v, want %v", probe.what, pm == pmA, probe.hit)
		}
	}

	// Exactly two 8-ref, 2-path blocks fit a budget of twice their price;
	// a third evicts one.
	blockBytes := int64(16*2*8*8 + 48*2*8)
	small := newMatrixCache(2 * blockBytes)
	mk := func(i int) string {
		return matKey([]reldb.TupleID{reldb.TupleID(10 * i), reldb.TupleID(10*i + 1), 0, 0, 0, 0, 0, 0}, 2)
	}
	small.Put(mk(1), 0, fakePM(2, 8))
	small.Put(mk(2), 0, fakePM(2, 8))
	if small.Len() != 2 {
		t.Fatalf("len = %d, want 2 (two blocks fit)", small.Len())
	}
	if ev := small.Put(mk(3), 0, fakePM(2, 8)); ev != 1 || small.Len() != 2 {
		t.Fatalf("third block: evicted %d, len %d; want 1, 2", ev, small.Len())
	}
}

// TestEngineMatrixReuse: with reuse enabled, the second PathSimilarities of
// the same block returns the identical matrices, the hit/miss counters move
// accordingly, and the path_sims stage span of the reused pass carries
// reused=true (one span, not a duplicate heavyweight one). An insert into
// the engine's database invalidates the entry.
func TestEngineMatrixReuse(t *testing.T) {
	w := testWorld(t)
	reg := obs.NewRegistry()
	tr := trace.New(trace.Options{})
	e, err := NewEngineCtx(context.Background(), w.DB, func() Config {
		c := engineConfig(w, false)
		c.Obs = reg
		c.Trace = tr
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	e.EnableMatrixReuse()
	refs := e.RefsForName("Wei Wang")[:10]

	pm1 := mustPathSims(t, e, refs)
	pm2 := mustPathSims(t, e, refs)
	if pm1 != pm2 {
		t.Fatal("second PathSimilarities recomputed instead of reusing the cached block")
	}
	if hits := reg.Counter("core.matrix_cache_hits").Value(); hits != 1 {
		t.Fatalf("matrix_cache_hits = %d, want 1", hits)
	}
	if misses := reg.Counter("core.matrix_cache_misses").Value(); misses != 1 {
		t.Fatalf("matrix_cache_misses = %d, want 1", misses)
	}

	// The trace shows two path_sims spans: the computing one without the
	// attribute, the reused one with reused=true and zero heavyweight
	// children of its own.
	var spans []*trace.SpanNode
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		if n.Name == "path_sims" {
			spans = append(spans, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Tree())
	if len(spans) != 2 {
		t.Fatalf("trace holds %d path_sims spans, want 2", len(spans))
	}
	if _, ok := spans[0].Attrs["reused"]; ok {
		t.Fatal("first (computing) path_sims span carries reused")
	}
	if got := spans[1].Attrs["reused"]; got != true {
		t.Fatalf("second path_sims span reused = %v, want true", got)
	}
	if len(spans[1].Children) != 0 {
		t.Fatalf("reused path_sims span has %d children, want 0", len(spans[1].Children))
	}

	// Combine of the cached block under current weights must equal the
	// engine's own Similarities (which routes through the cache too).
	resemW, walkW := e.Weights()
	m := Combine(pm2, resemW, walkW)
	want := e.Similarities(refs)
	for i := range refs {
		for j := range refs {
			if m.R[i][j] != want.R[i][j] || m.W[i][j] != want.W[i][j] {
				t.Fatalf("Combine(cached)[%d][%d] differs from Similarities", i, j)
			}
		}
	}

	// Mutating the database bumps its version: the old entry can never be
	// served again.
	insertAnyTuple(t, e.db)
	pm3 := mustPathSims(t, e, refs)
	if pm3 == pm1 {
		t.Fatal("PathSimilarities served a stale block after an insert")
	}
	if misses := reg.Counter("core.matrix_cache_misses").Value(); misses != 2 {
		t.Fatalf("matrix_cache_misses after insert = %d, want 2", misses)
	}
}

// insertAnyTuple inserts one fresh tuple into the first relation of the
// (expanded) database, just to bump its mutation version.
func insertAnyTuple(t *testing.T, db *reldb.Database) {
	t.Helper()
	for _, rs := range db.Schema.Relations() {
		vals := make([]reldb.Value, len(rs.Attrs))
		for i := range vals {
			vals[i] = fmt.Sprintf("version-bump-%d", i)
		}
		if _, err := db.Insert(rs.Name, vals...); err == nil {
			return
		}
	}
	t.Fatal("could not insert a version-bumping tuple into any relation")
}

// TestPairsScoredIgnoresMatrixReuse: sim.pairs_scored counts the kernel's
// results on weighted paths only, whether the combined matrix comes from
// similarities' own row pass or from PathSimilarities, which fills every
// path for the matrix cache; a reused block adds nothing.
func TestPairsScoredIgnoresMatrixReuse(t *testing.T) {
	w := testWorld(t)
	scored := func(reuse, halfWeighted bool) (first, second int64) {
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
		if reuse {
			e.EnableMatrixReuse()
		}
		refs := e.RefsForName("Wei Wang")
		e.Similarities(refs)
		first = reg.Counter("sim.pairs_scored").Value()
		e.Similarities(refs)
		return first, reg.Counter("sim.pairs_scored").Value() - first
	}
	all, _ := scored(false, false)
	plain, plainAgain := scored(false, true)
	reused, reusedAgain := scored(true, true)
	if plain == 0 || plain >= all {
		t.Fatalf("half-weighted count %d, all-weighted %d: want 0 < half < all", plain, all)
	}
	if reused != plain {
		t.Fatalf("pairs_scored with matrix reuse = %d, without = %d", reused, plain)
	}
	if plainAgain != plain || reusedAgain != 0 {
		t.Fatalf("second pass added %d without reuse (want %d), %d with reuse (want 0)", plainAgain, plain, reusedAgain)
	}
}
