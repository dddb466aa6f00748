package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"distinct/internal/obs"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// paperWorld builds a DBLP-shaped world of six papers with one to four
// authors each over three venues, and every join path of up to four steps
// from Publish that does not start at the author. Its paths bounce back
// over the paper hop (co-authors) and do not (venue-side), so a paper's
// co-authors share some paths and not others. refs lists every reference,
// papers[i] those of the i-th paper.
func paperWorld(t *testing.T) (db *reldb.Database, paths []reldb.JoinPath, refs []reldb.TupleID, papers [][]reldb.TupleID) {
	t.Helper()
	schema := reldb.MustSchema(
		reldb.MustRelationSchema("Authors", reldb.Attribute{Name: "author", Key: true}),
		reldb.MustRelationSchema("Venues", reldb.Attribute{Name: "venue", Key: true}),
		reldb.MustRelationSchema("Papers",
			reldb.Attribute{Name: "key", Key: true},
			reldb.Attribute{Name: "venue", FK: "Venues"}),
		reldb.MustRelationSchema("Publish",
			reldb.Attribute{Name: "author", FK: "Authors"},
			reldb.Attribute{Name: "key", FK: "Papers"}),
	)
	db = reldb.NewDatabase(schema)
	authors := []string{"ann", "bob", "cid", "dee", "eve"}
	for _, a := range authors {
		db.MustInsert("Authors", a)
	}
	for _, v := range []string{"v0", "v1", "v2"} {
		db.MustInsert("Venues", v)
	}
	for p, n := range []int{3, 1, 4, 2, 3, 2} {
		key := fmt.Sprintf("p%d", p)
		db.MustInsert("Papers", key, fmt.Sprintf("v%d", p%3))
		var rs []reldb.TupleID
		for a := 0; a < n; a++ {
			rs = append(rs, db.MustInsert("Publish", authors[(p+a)%len(authors)], key))
		}
		papers = append(papers, rs)
		refs = append(refs, rs...)
	}
	paths = reldb.EnumerateJoinPaths(schema, "Publish", reldb.EnumerateOptions{
		MaxLen:       4,
		ExcludeFirst: []reldb.Step{{Rel: "Publish", Attr: "author", Forward: true}},
	})
	return db, paths, refs, papers
}

// sharedPath reports whether a path's neighborhoods are shared among a
// paper's co-authors: its second step does not bounce back over the first.
func sharedPath(p reldb.JoinPath) bool {
	return len(p.Steps) == 1 || p.Steps[1] != p.Steps[0].Inverse()
}

// sameBits reports whether two neighborhoods hold the same keys and the
// same bits in every mass and in SumFwd.
func sameBits(a, b prop.SparseNeighborhood) bool {
	if !slices.Equal(a.Keys, b.Keys) || len(a.FBs) != len(b.FBs) ||
		math.Float64bits(a.SumFwd) != math.Float64bits(b.SumFwd) {
		return false
	}
	for i, fb := range a.FBs {
		if math.Float64bits(fb.Fwd) != math.Float64bits(b.FBs[i].Fwd) ||
			math.Float64bits(fb.Bwd) != math.Float64bits(b.FBs[i].Bwd) {
			return false
		}
	}
	return true
}

// checkDonorFree holds every path of got to a fresh donor-free
// propagation of r, bit for bit and fan-out tail for fan-out tail.
func checkDonorFree(t *testing.T, ct *prop.CompiledTrie, paths []reldb.JoinPath, r reldb.TupleID, nbs *prop.Neighborhoods) {
	t.Helper()
	got, want := views(nbs), views(ct.Propagate(r, nil, nil))
	if len(got) != len(want) {
		t.Fatalf("ref %d: %d paths, donor-free %d", r, len(got), len(want))
	}
	for p := range want {
		if !sameBits(got[p], want[p]) || got[p].Tail != want[p].Tail {
			t.Fatalf("ref %d path %s: %+v, donor-free %+v", r, paths[p], got[p], want[p])
		}
	}
}

// TestSharedPathsBorrowed: after a prefetch, and after plain Neighborhoods
// calls on a fresh extractor, every co-author of a paper holds the same
// arrays on the shared paths, every result is bit-identical to donor-free
// propagation, and sim.prefetch_shared counts one borrower per reference
// beyond each paper's first.
func TestSharedPathsBorrowed(t *testing.T) {
	db, paths, refs, papers := paperWorld(t)
	ct := prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(paths), 0)
	nShared := 0
	for _, p := range paths {
		if sharedPath(p) {
			nShared++
		}
	}
	if nShared == 0 || nShared == len(paths) {
		t.Fatalf("%d of %d paths shared; the check needs both kinds", nShared, len(paths))
	}
	for _, mode := range []string{"prefetch", "neighborhoods"} {
		reg := obs.NewRegistry()
		ext := New(ct, reg)
		if mode == "prefetch" {
			// Reversed and repeated: grouping, not input order, pairs the
			// co-authors.
			in := slices.Concat(refs, refs)
			slices.Reverse(in)
			ext.Prefetch(in, 2)
		}
		for _, rs := range papers {
			first := views(ext.Neighborhoods(rs[0]))
			for _, r := range rs {
				checkDonorFree(t, ct, paths, r, ext.Neighborhoods(r))
				nbs := views(ext.Neighborhoods(r))
				for p := range paths {
					if sharedPath(paths[p]) && len(nbs[p].Keys) > 0 && &nbs[p].Keys[0] != &first[p].Keys[0] {
						t.Fatalf("%s: ref %d path %s does not borrow its co-author's neighborhood", mode, r, paths[p])
					}
				}
			}
		}
		want := int64(0)
		if mode == "prefetch" {
			want = int64(len(refs) - len(papers))
		}
		if got := reg.Counter("sim.prefetch_shared").Value(); got != want {
			t.Errorf("%s: sim.prefetch_shared = %d, want %d", mode, got, want)
		}
	}
}

// TestSharedNeighborhoodsRace: eight goroutines read every reference of
// the multi-author papers through Neighborhoods while a prefetch of the
// same references runs, so donors are stored and borrowed concurrently.
// Run under -race; every result any goroutine saw must be bit-identical
// to donor-free propagation.
func TestSharedNeighborhoodsRace(t *testing.T) {
	db, paths, _, papers := paperWorld(t)
	var refs []reldb.TupleID
	for _, rs := range papers {
		if len(rs) > 1 {
			refs = append(refs, rs...)
		}
	}
	ct := prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(paths), 0)
	for round := 0; round < 20; round++ {
		ext := New(ct, nil)
		const readers = 8
		seen := make([][]*prop.Neighborhoods, readers)
		var prefetchErr error
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(readers + 1)
		go func() {
			defer wg.Done()
			<-start
			_, prefetchErr = ext.NeighborhoodsCtx(context.Background(), refs, 2)
		}()
		for w := 0; w < readers; w++ {
			go func(w int) {
				defer wg.Done()
				<-start
				for i := range refs {
					seen[w] = append(seen[w], ext.Neighborhoods(refs[(i+w)%len(refs)]))
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if prefetchErr != nil {
			t.Fatal(prefetchErr)
		}
		for w, got := range seen {
			for i, nbs := range got {
				checkDonorFree(t, ct, paths, refs[(i+w)%len(refs)], nbs)
			}
		}
	}
}
