package prop

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distinct/internal/reldb"
)

// parallelWorld builds a deterministic cyclic world plus a path set large
// enough to exercise the multi-worker hop compile.
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
// (the frontier accumulates in a fixed order regardless of which worker
// compiled which hop).
func TestCompileTrieCtxWorkersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db, paths, starts := parallelWorld(seed)
		trie := NewTrie(paths)
		par := CompileTrieCtx(context.Background(), db, trie, 4)
		ser := CompileTrieCtx(context.Background(), db, trie, 1)
		ph, pe := par.Stats()
		sh, se := ser.Stats()
		if ph != sh || pe != se {
			t.Fatalf("seed %d: parallel Stats = (%d, %d), serial = (%d, %d)", seed, ph, pe, sh, se)
		}
		ps, ss := par.NewScratch(), ser.NewScratch()
		for _, id := range starts {
			got, want := views(par.Propagate(id, ps, nil)), views(ser.Propagate(id, ss, nil))
			for pi := range want {
				if diffSparse(got[pi], want[pi]) != 0 {
					t.Fatalf("seed %d: start %d path %s: parallel compile diverges from serial",
						seed, id, paths[pi])
				}
			}
		}
	}
}

// TestCompileTrieCtxExactlyOnce: whatever the worker count, each distinct
// (from, step) hop is compiled once — every trie node with that hop shares
// one *HopCSR, and the distinct plans are exactly the ones Stats counts.
func TestCompileTrieCtxExactlyOnce(t *testing.T) {
	db, paths, _ := parallelWorld(3)
	trie := NewTrie(paths)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ct := CompileTrieCtx(context.Background(), db, trie, workers)
			byIdent := make(map[hopIdent]*reldb.HopCSR)
			distinct := make(map[*reldb.HopCSR]bool)
			edges := 0
			for _, nd := range ct.nodes {
				id := hopIdent{from: nd.hop.FromRel, step: nd.hop.Step}
				if prev, ok := byIdent[id]; ok && prev != nd.hop {
					t.Fatalf("hop %+v compiled twice", id)
				}
				byIdent[id] = nd.hop
				if !distinct[nd.hop] {
					distinct[nd.hop] = true
					edges += nd.hop.NumEdges()
				}
			}
			if len(distinct) == len(ct.nodes) {
				t.Fatal("no hop repeats across trie nodes; nothing to share")
			}
			hops, statEdges := ct.Stats()
			if len(distinct) != hops || edges != statEdges {
				t.Fatalf("%d distinct plans with %d edges, Stats = (%d, %d)",
					len(distinct), edges, hops, statEdges)
			}
		})
	}
}

// TestCompileTrieCtxCancelled: cancellation only stops the parallel pass;
// the returned trie is still complete and correct, because the serial pass
// compiles whatever the workers skipped.
func TestCompileTrieCtxCancelled(t *testing.T) {
	db, paths, starts := parallelWorld(5)
	trie := NewTrie(paths)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any hop is claimed
	got := CompileTrieCtx(ctx, db, trie, 4)
	want := compile(db, trie)
	gh, ge := got.Stats()
	wh, we := want.Stats()
	if gh != wh || ge != we {
		t.Fatalf("cancelled Stats = (%d, %d), want (%d, %d)", gh, ge, wh, we)
	}
	gs, ws := got.NewScratch(), want.NewScratch()
	for _, id := range starts {
		g, w := views(got.Propagate(id, gs, nil)), views(want.Propagate(id, ws, nil))
		for pi := range w {
			if diffSparse(g[pi], w[pi]) != 0 {
				t.Fatalf("start %d path %s: cancelled-compile trie diverges", id, paths[pi])
			}
		}
	}
}

// TestCompiledTrieIsSnapshot: a compiled trie owns its hop plans, so rows
// inserted after the compile — even rows on the trie's own hops — leave
// every earlier start's propagation bit-identical, while a fresh compile
// does see them. A start inserted after the compile is outside the
// snapshot: it has no share key and propagates to nothing, where the fresh
// compile gives it both.
func TestCompiledTrieIsSnapshot(t *testing.T) {
	db, _ := miniDB(t)
	trie := NewTrie(dblpPaths(db.Schema))
	ct := compile(db, trie)
	before := make([][]SparseNeighborhood, db.NumTuples())
	for id := range before {
		before[id] = views(ct.Propagate(reldb.TupleID(id), nil, nil))
	}

	db.MustInsert("Authors", "philip")
	db.MustInsert("Publications", "p3", "vldb97")
	db.MustInsert("Publish", "haixun", "p1")
	db.MustInsert("Publish", "philip", "p1")
	late := db.MustInsert("Publish", "wei", "p3")

	fresh := compile(db, trie)
	changed := false
	for id, want := range before {
		got := views(ct.Propagate(reldb.TupleID(id), nil, nil))
		now := views(fresh.Propagate(reldb.TupleID(id), nil, nil))
		for pi := range want {
			if !sameBits(got[pi], want[pi]) {
				t.Fatalf("start %d path %s: propagation changed after Insert", id, trie.paths[pi])
			}
			if !sameBits(now[pi], want[pi]) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("the inserts touch none of the trie's hops; the test shows nothing")
	}

	for id := reldb.TupleID(len(before)); int(id) < db.NumTuples(); id++ {
		if k := ct.ShareKey(id); k != -1 {
			t.Errorf("start %d inserted after the compile: ShareKey = %d, want -1", id, k)
		}
		for pi, nb := range views(ct.Propagate(id, nil, nil)) {
			if len(nb.Keys) != 0 || len(nb.FBs) != 0 || nb.SumFwd != 0 {
				t.Fatalf("start %d inserted after the compile: path %s has %d neighbors", id, trie.paths[pi], len(nb.Keys))
			}
		}
	}
	if fresh.ShareKey(late) < 0 || slices.IndexFunc(views(fresh.Propagate(late, nil, nil)), func(nb SparseNeighborhood) bool {
		return len(nb.Keys) > 0
	}) < 0 {
		t.Fatal("a fresh compile gives the late start no share key or no neighbors; the test shows nothing")
	}
}
