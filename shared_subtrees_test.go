package distinct_test

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"distinct"
	"distinct/internal/dblp"
	"distinct/internal/prop"
	"distinct/internal/reldb"
	"distinct/internal/sim"
)

// TestSharedSubtreesPaperScale holds every reference of the paper-scale
// world (dblp.DefaultConfig: 18,083 references on 5,101 papers), on every
// one of the engine's 44 join paths, bit for bit to its donor-free
// propagation after a prefetch that shares each paper's subtrees among its
// co-authors. The references are prefetched on fresh extractors, a few
// thousand at a time and whole papers at once, so the check never holds
// more than a slice of the database's neighborhoods.
func TestSharedSubtreesPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world")
	}
	if raceEnabled {
		// Bit-exactness does not depend on the detector, which slows this
		// twentyfold; the sim package's race test covers concurrent donors.
		t.Skip("paper-scale world: its results do not depend on -race")
	}
	w, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
	})
	if err != nil {
		t.Fatal(err)
	}
	db, paths := eng.DB(), eng.Paths()
	ct := prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(paths), 0)
	type keyed struct {
		ref reldb.TupleID
		key int
	}
	var refs []keyed
	for _, r := range db.Relation(dblp.ReferenceRelation).TupleIDs() {
		k := ct.ShareKey(r)
		if k < 0 {
			t.Fatalf("reference %d has no share key", r)
		}
		refs = append(refs, keyed{r, k})
	}
	slices.SortFunc(refs, func(a, b keyed) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ref, b.ref)) })

	reg := distinct.NewMetrics()
	donors := 0
	s := ct.NewScratch()
	const chunk = 2048
	for lo := 0; lo < len(refs); {
		hi := min(lo+chunk, len(refs))
		for hi < len(refs) && refs[hi].key == refs[hi-1].key {
			hi++ // never split a paper's references
		}
		batch := make([]reldb.TupleID, 0, hi-lo)
		for i, kr := range refs[lo:hi] {
			batch = append(batch, kr.ref)
			if i == 0 || kr.key != refs[lo+i-1].key {
				donors++
			}
		}
		x := sim.New(ct, reg)
		x.Prefetch(batch, 2)
		for _, r := range batch {
			got, want := x.Neighborhoods(r), ct.Propagate(r, s, nil)
			for p := range want.NumPaths() {
				if g, w := got.Path(p), want.Path(p); g.Tail != w.Tail || !neighborhoodBitsEqual(g, w) {
					t.Fatalf("reference %d path %s differs from its donor-free propagation", r, paths[p])
				}
			}
		}
		lo = hi
	}
	if len(refs) != 18083 || len(paths) != 44 || donors != 5101 {
		t.Errorf("checked %d references × %d paths with %d donors, want 18083 × 44 with 5101", len(refs), len(paths), donors)
	}
	if got, want := reg.Snapshot().Counters["sim.prefetch_shared"], int64(len(refs)-donors); got != want {
		t.Errorf("sim.prefetch_shared = %d, want %d", got, want)
	}
}

// neighborhoodBitsEqual reports whether two neighborhoods hold the same
// keys and the same bits in every mass and in SumFwd.
func neighborhoodBitsEqual(a, b prop.SparseNeighborhood) bool {
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
