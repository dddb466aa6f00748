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

// TestMatrixCacheUnit exercises the LRU directly: hit, miss, version purge,
// byte-budget eviction, racing-put dedup.
func TestMatrixCacheUnit(t *testing.T) {
	refsA := []reldb.TupleID{1, 2, 3}
	refsB := []reldb.TupleID{4, 5, 6}
	pmA, pmB := fakePM(2, 3), fakePM(2, 3)

	c := newMatrixCache(DefaultMatrixCacheBytes)
	if got := c.get(refsA, 0, 2); got != nil {
		t.Fatal("empty cache returned a hit")
	}
	c.put(refsA, 0, pmA)
	if got := c.get(refsA, 0, 2); got != pmA {
		t.Fatal("cache missed the block it just stored")
	}
	if got := c.get(refsB, 0, 2); got != nil {
		t.Fatal("different refs hit the wrong entry")
	}
	if got := c.get(refsA, 0, 3); got != nil {
		t.Fatal("different path count hit the wrong entry")
	}
	// Racing put of the same key is dropped, not double-counted.
	used := c.used
	c.put(refsA, 0, fakePM(2, 3))
	if c.used != used || c.Len() != 1 {
		t.Fatalf("duplicate put changed the cache: used %d -> %d, len %d", used, c.used, c.Len())
	}
	// A newer version misses, and probing purges the stale entry.
	c.put(refsB, 0, pmB)
	if got := c.get(refsA, 1, 2); got != nil {
		t.Fatal("stale version returned a hit")
	}
	if c.Len() != 1 {
		t.Fatalf("stale entry not purged on probe: len = %d, want 1", c.Len())
	}

	// Byte-budget eviction: a budget that fits ~2 of these blocks must
	// evict the least recently used when a third arrives.
	blockBytes := int64(16*2*8*8 + 48*2*8)
	small := newMatrixCache(2 * blockBytes)
	mk := func(i int) []reldb.TupleID {
		return []reldb.TupleID{reldb.TupleID(10 * i), reldb.TupleID(10*i + 1), 0, 0, 0, 0, 0, 0}
	}
	small.put(mk(1), 0, fakePM(2, 8))
	small.put(mk(2), 0, fakePM(2, 8))
	small.get(mk(1), 0, 2) // touch 1: 2 becomes LRU
	small.put(mk(3), 0, fakePM(2, 8))
	if small.Len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", small.Len())
	}
	if small.get(mk(2), 0, 2) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if small.get(mk(1), 0, 2) == nil || small.get(mk(3), 0, 2) == nil {
		t.Fatal("recently used entries were evicted")
	}

	// An entry larger than the whole budget is still kept, alone.
	tiny := newMatrixCache(1)
	tiny.put(refsA, 0, pmA)
	if tiny.get(refsA, 0, 2) != pmA {
		t.Fatal("over-budget entry was not kept")
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
	e.EnableMatrixReuse(0)
	refs := e.RefsForName("Wei Wang")[:10]

	pm1 := mustPathSims(t, e, refs)
	if got := e.MatrixCacheLen(); got != 1 {
		t.Fatalf("MatrixCacheLen after first compute = %d, want 1", got)
	}
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
