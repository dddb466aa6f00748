package prop

import (
	"math"
	"math/rand"
	"testing"

	"distinct/internal/reldb"
)

func TestSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := make(Neighborhood)
		for i := 0; i < rng.Intn(30); i++ {
			n[reldb.TupleID(rng.Intn(100))] = FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
		}
		s := n.Sparse()
		if s.Len() != len(n) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(n))
		}
		for i := 1; i < len(s.Keys); i++ {
			if s.Keys[i-1] >= s.Keys[i] {
				t.Fatal("keys not strictly ascending")
			}
		}
		for id, fb := range n {
			got, ok := s.Lookup(id)
			if !ok || got != fb {
				t.Fatalf("Lookup(%d) = %+v, %v; want %+v", id, got, ok, fb)
			}
		}
		if _, ok := s.Lookup(reldb.TupleID(1000)); ok {
			t.Fatal("Lookup of absent key succeeded")
		}
		if math.Abs(s.TotalFwd()-n.TotalFwd()) > 1e-12 {
			t.Fatalf("TotalFwd = %v, map %v", s.TotalFwd(), n.TotalFwd())
		}
		if math.Abs(s.MaxBwd()-n.MaxBwd()) > 1e-12 {
			t.Fatalf("MaxBwd = %v, map %v", s.MaxBwd(), n.MaxBwd())
		}
		back := s.Map()
		if len(back) != len(n) {
			t.Fatalf("Map round trip has %d entries, want %d", len(back), len(n))
		}
		for id, fb := range n {
			if back[id] != fb {
				t.Fatalf("round trip lost %d", id)
			}
		}
	}
}

func TestSparseEmptyAndNil(t *testing.T) {
	var nilNB Neighborhood
	s := nilNB.Sparse()
	if s.Len() != 0 || s.SumFwd != 0 {
		t.Fatalf("nil sparse = %+v", s)
	}
	if s.Map() != nil {
		t.Fatal("empty sparse should map back to nil")
	}
	if s.MaxBwd() != 0 {
		t.Fatal("empty MaxBwd != 0")
	}
	if _, ok := s.Lookup(0); ok {
		t.Fatal("Lookup on empty succeeded")
	}
}

// TestPropagateSparseMatchesPropagate: the sparse propagation entry points
// are exactly the map ones, finalised.
func TestPropagateSparseMatchesPropagate(t *testing.T) {
	db, refMap := miniDB(t)
	var refs []reldb.TupleID
	for _, r := range refMap {
		refs = append(refs, r)
	}
	paths := []reldb.JoinPath{
		coauthorPath(),
		{Start: "Publish", Steps: []reldb.Step{
			{Rel: "Publish", Attr: "paper-key", Forward: true},
			{Rel: "Publications", Attr: "proc-key", Forward: true},
		}},
	}
	trie := NewTrie(paths)
	for _, r := range refs {
		multi := PropagateMultiSparse(db, r, trie)
		if len(multi) != len(paths) {
			t.Fatalf("PropagateMultiSparse returned %d paths, want %d", len(multi), len(paths))
		}
		for pi, p := range paths {
			want := Propagate(db, r, p)
			for _, got := range []SparseNeighborhood{Propagate(db, r, p).Sparse(), multi[pi]} {
				if got.Len() != len(want) {
					t.Fatalf("ref %d path %d: %d neighbors, want %d", r, pi, got.Len(), len(want))
				}
				for id, fb := range want {
					g, ok := got.Lookup(id)
					if !ok || g != fb {
						t.Fatalf("ref %d path %d tuple %d: %+v vs %+v", r, pi, id, g, fb)
					}
				}
				if math.Abs(got.SumFwd-want.TotalFwd()) > 1e-12 {
					t.Fatalf("ref %d path %d: SumFwd %v, want %v", r, pi, got.SumFwd, want.TotalFwd())
				}
			}
		}
	}
}
