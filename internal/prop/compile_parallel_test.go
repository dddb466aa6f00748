package prop

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"distinct/internal/reldb"
)

// parallelWorld builds a deterministic cyclic world plus a path set large
// enough to exercise multi-worker hop warm-up. Calling it twice with the
// same seed yields two independent but identical databases, so a parallel
// and a serial compile can be compared without sharing a plan cache.
func parallelWorld(seed int64) (*reldb.Database, []reldb.JoinPath, []reldb.TupleID) {
	rng := rand.New(rand.NewSource(seed))
	db := cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: true, dangling: true})
	var paths []reldb.JoinPath
	var starts []reldb.TupleID
	for _, rs := range db.Schema.Relations() {
		if len(rs.ForeignKeys()) == 0 || db.Relation(rs.Name).Size() == 0 {
			continue
		}
		ps := reldb.EnumerateJoinPaths(db.Schema, rs.Name, reldb.EnumerateOptions{MaxLen: 3})
		if len(ps) > 20 {
			ps = ps[:20]
		}
		paths = append(paths, ps...)
		if ids := db.Relation(rs.Name).TupleIDs(); len(ids) > 0 && len(starts) < 6 {
			starts = append(starts, ids[0])
		}
	}
	return db, paths, starts
}

// TestCompileTrieCtxWorkersEquivalence: a multi-worker compile must produce
// the same plan as a serial one — same Stats, and bit-identical propagation
// (the frontier accumulates in a fixed order regardless of how the hop
// plans were warmed).
func TestCompileTrieCtxWorkersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		dbPar, paths, starts := parallelWorld(seed)
		dbSer, _, _ := parallelWorld(seed)
		trie := NewTrie(paths)
		par := CompileTrieCtx(context.Background(), dbPar, trie, 4)
		ser := CompileTrieCtx(context.Background(), dbSer, trie, 1)
		ph, pe := par.Stats()
		sh, se := ser.Stats()
		if ph != sh || pe != se {
			t.Fatalf("seed %d: parallel Stats = (%d, %d), serial = (%d, %d)", seed, ph, pe, sh, se)
		}
		ps, ss := par.NewScratch(), ser.NewScratch()
		for _, id := range starts {
			got, want := par.Propagate(id, ps, nil), ser.Propagate(id, ss, nil)
			for pi := range want {
				if diffSparse(got[pi], want[pi]) != 0 {
					t.Fatalf("seed %d: start %d path %s: parallel compile diverges from serial",
						seed, id, paths[pi])
				}
			}
		}
	}
}

// TestCompileTrieCtxExactlyOnce: the parallel warm-up claims each distinct
// hop exactly once — the database's compile counter must equal the plan's
// distinct-hop count, with no duplicate compiles from racing workers.
func TestCompileTrieCtxExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, paths, _ := parallelWorld(3)
			trie := NewTrie(paths)
			ct := CompileTrieCtx(context.Background(), db, trie, workers)
			hops, _ := ct.Stats()
			if got := db.HopCompiles(); got != int64(hops) {
				t.Fatalf("HopCompiles = %d after compile with %d workers, want %d (one per distinct hop)",
					got, workers, hops)
			}
			// Recompiling finds every plan cached.
			CompileTrieCtx(context.Background(), db, trie, workers)
			if got := db.HopCompiles(); got != int64(hops) {
				t.Fatalf("HopCompiles = %d after warm recompile, want %d", got, hops)
			}
		})
	}
}

// TestCompileTrieCtxCancelled: cancellation only stops the speculative
// warm-up; the returned trie is still complete and correct, because the
// serial assembly compiles whatever the workers skipped.
func TestCompileTrieCtxCancelled(t *testing.T) {
	dbCan, paths, starts := parallelWorld(5)
	dbRef, _, _ := parallelWorld(5)
	trie := NewTrie(paths)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any hop is claimed
	got := CompileTrieCtx(ctx, dbCan, trie, 4)
	want := compile(dbRef, trie)
	gh, ge := got.Stats()
	wh, we := want.Stats()
	if gh != wh || ge != we {
		t.Fatalf("cancelled Stats = (%d, %d), want (%d, %d)", gh, ge, wh, we)
	}
	gs, ws := got.NewScratch(), want.NewScratch()
	for _, id := range starts {
		g, w := got.Propagate(id, gs, nil), want.Propagate(id, ws, nil)
		for pi := range w {
			if diffSparse(g[pi], w[pi]) != 0 {
				t.Fatalf("start %d path %s: cancelled-compile trie diverges", id, paths[pi])
			}
		}
	}
}
