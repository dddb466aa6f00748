package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distinct/internal/oracle"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// nb builds a neighborhood from (id, fwd, bwd) triples.
func nb(triples ...float64) nbMap {
	n := make(nbMap)
	for i := 0; i+2 < len(triples); i += 3 {
		n[reldb.TupleID(triples[i])] = prop.FB{Fwd: triples[i+1], Bwd: triples[i+2]}
	}
	return n
}

// sp builds the sparse form of the same triples.
func sp(triples ...float64) prop.SparseNeighborhood {
	return nb(triples...).sparse()
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// pairExt scores single pairs for the tests; its empty database only sizes
// the pooled scratches, which grow to whatever keys they meet.
var pairExt = NewExtractor(reldb.NewDatabase(reldb.MustSchema()), nil)

// pairKernel scores one pair along one path through Extractor.Pair, the way
// every single-pair caller reaches the block kernel.
func pairKernel(a, b prop.SparseNeighborhood) (resem, walkAB, walkBA float64) {
	t := pairExt.Pair(prop.Pack([]prop.SparseNeighborhood{a}), prop.Pack([]prop.SparseNeighborhood{b}), nil)[0]
	return t.Resem, t.WalkAB, t.WalkBA
}

// kernels are the production kernel and the oracle; the hand-computed
// tests hold both to the same values.
var kernels = map[string]func(a, b prop.SparseNeighborhood) (float64, float64, float64){
	"Pair":      pairKernel,
	"refKernel": oracle.RefKernel,
}

func resemOf(a, b prop.SparseNeighborhood) float64 {
	r, _, _ := pairKernel(a, b)
	return r
}

func symWalkOf(a, b prop.SparseNeighborhood) float64 {
	_, ab, ba := pairKernel(a, b)
	return (ab + ba) / 2
}

func TestResemblanceHandComputed(t *testing.T) {
	a := sp(1, 0.5, 0.3, 2, 0.5, 0.2)
	b := sp(2, 0.25, 0.1, 3, 0.75, 0.9)
	// Intersection {2}: min = 0.25. Union max: max(t1)=0.5, max(t2)=0.5, max(t3)=0.75.
	want := 0.25 / (0.5 + 0.5 + 0.75)
	for name, k := range kernels {
		if got, _, _ := k(a, b); !approx(got, want) {
			t.Errorf("%s resem = %v, want %v", name, got, want)
		}
		// Symmetry.
		if got, _, _ := k(b, a); !approx(got, want) {
			t.Errorf("%s resem reversed = %v, want %v", name, got, want)
		}
	}
}

func TestResemblanceIdentityAndDisjoint(t *testing.T) {
	a := sp(1, 0.4, 0.1, 2, 0.6, 0.2)
	b := sp(3, 1.0, 1.0)
	for name, k := range kernels {
		if got, _, _ := k(a, a); !approx(got, 1.0) {
			t.Errorf("%s: self resemblance = %v, want 1", name, got)
		}
		if got, _, _ := k(a, b); got != 0 {
			t.Errorf("%s: disjoint resemblance = %v, want 0", name, got)
		}
		if got, _, _ := k(prop.SparseNeighborhood{}, a); got != 0 {
			t.Errorf("%s: empty resemblance = %v, want 0", name, got)
		}
		if got, _, _ := k(a, prop.SparseNeighborhood{}); got != 0 {
			t.Errorf("%s: empty resemblance = %v, want 0", name, got)
		}
	}
}

func TestWalkProbHandComputed(t *testing.T) {
	a := sp(1, 0.5, 0.4, 2, 0.5, 0.6)
	b := sp(1, 0.2, 0.3, 3, 0.8, 0.9)
	for name, k := range kernels {
		_, ab, ba := k(a, b)
		// Directed a->b: shared {1}: Fwd_a(1)*Bwd_b(1) = 0.5*0.3.
		if !approx(ab, 0.15) {
			t.Errorf("%s: walk a->b = %v, want 0.15", name, ab)
		}
		// Directed b->a: Fwd_b(1)*Bwd_a(1) = 0.2*0.4.
		if !approx(ba, 0.08) {
			t.Errorf("%s: walk b->a = %v, want 0.08", name, ba)
		}
		// Swapping the operands swaps the directions.
		if _, ab2, ba2 := k(b, a); !approx(ab2, 0.08) || !approx(ba2, 0.15) {
			t.Errorf("%s: swapped walks = %v/%v, want 0.08/0.15", name, ab2, ba2)
		}
	}
	if got := symWalkOf(a, b); !approx(got, (0.15+0.08)/2) {
		t.Errorf("symmetrised walk = %v", got)
	}
	if got := symWalkOf(b, a); !approx(got, (0.15+0.08)/2) {
		t.Errorf("symmetrised walk not symmetric: %v", got)
	}
}

func TestWalkProbAsymmetricSizes(t *testing.T) {
	// len(a) > len(b) exercises the small/large ordering inside the scan.
	a := sp(1, 0.25, 0.5, 2, 0.25, 0.5, 3, 0.5, 0.5)
	b := sp(1, 1.0, 0.75)
	for name, k := range kernels {
		if _, ab, ba := k(a, b); !approx(ab, 0.25*0.75) || !approx(ba, 1.0*0.5) {
			t.Errorf("%s: walks = %v/%v, want %v/0.5", name, ab, ba, 0.25*0.75)
		}
	}
}

// TestPairMatchesOracle holds a single pair to oracle.RefKernel bit for bit, and
// pins what operand order and empty operands do to the result.
func TestPairMatchesOracle(t *testing.T) {
	a := sp(1, 0.5, 0.4, 2, 0.3, 0.6, 5, 0.2, 0.1)
	b := sp(2, 0.25, 0.1, 3, 0.5, 0.9, 5, 0.25, 0.3)
	r, ab, ba := pairKernel(a, b)
	if wr, wab, wba := oracle.RefKernel(a, b); r != wr || ab != wab || ba != wba {
		t.Errorf("Pair = %v/%v/%v, oracle.RefKernel = %v/%v/%v", r, ab, ba, wr, wab, wba)
	}
	// Swapped operands: same resemblance, directions exchanged, bit for bit.
	if r2, ab2, ba2 := pairKernel(b, a); r2 != r || ab2 != ba || ba2 != ab {
		t.Errorf("Pair(b, a) = %v/%v/%v, want %v/%v/%v", r2, ab2, ba2, r, ba, ab)
	}
	// Empty operands.
	if r, ab, ba := pairKernel(prop.SparseNeighborhood{}, b); r != 0 || ab != 0 || ba != 0 {
		t.Errorf("Pair with empty operand = %v/%v/%v, want zeros", r, ab, ba)
	}
}

func randomNeighborhood(rng *rand.Rand) nbMap {
	n := make(nbMap)
	for i := 0; i < 1+rng.Intn(12); i++ {
		n[reldb.TupleID(rng.Intn(16))] = prop.FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
	}
	return n
}

// Property: resemblance is symmetric, bounded to [0,1], 1 on identical
// neighborhoods, and 0 on disjoint ones.
func TestResemblanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomNeighborhood(rng).sparse(), randomNeighborhood(rng).sparse()
		r1, r2 := resemOf(a, b), resemOf(b, a)
		if !approx(r1, r2) {
			t.Logf("asymmetric: %v vs %v", r1, r2)
			return false
		}
		if r1 < 0 || r1 > 1+1e-12 {
			t.Logf("out of range: %v", r1)
			return false
		}
		if !approx(resemOf(a, a), 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: symmetric walk probability is symmetric and non-negative, and
// monotone under shrinking a neighborhood (removing shared tuples can only
// decrease it).
func TestWalkProbProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		am, bm := randomNeighborhood(rng), randomNeighborhood(rng)
		a, b := am.sparse(), bm.sparse()
		s := symWalkOf(a, b)
		if s < 0 {
			return false
		}
		if !approx(s, symWalkOf(b, a)) {
			return false
		}
		// Remove one shared tuple, if any: probability must not increase.
		for _, id := range a.Keys {
			if _, ok := bm[id]; ok {
				a2 := make(nbMap, len(am))
				for k, v := range am {
					a2[k] = v
				}
				delete(a2, id)
				if symWalkOf(a2.sparse(), b) > s+1e-12 {
					return false
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func extractorFixture(t *testing.T) (*Extractor, []reldb.TupleID) {
	t.Helper()
	schema := reldb.MustSchema(
		reldb.MustRelationSchema("Authors", reldb.Attribute{Name: "author", Key: true}),
		reldb.MustRelationSchema("Publish",
			reldb.Attribute{Name: "author", FK: "Authors"},
			reldb.Attribute{Name: "paper-key", FK: "Publications"},
		),
		reldb.MustRelationSchema("Publications",
			reldb.Attribute{Name: "paper-key", Key: true}),
	)
	db := reldb.NewDatabase(schema)
	for _, a := range []string{"x", "y", "z"} {
		db.MustInsert("Authors", a)
	}
	db.MustInsert("Publications", "p1")
	db.MustInsert("Publications", "p2")
	r1 := db.MustInsert("Publish", "x", "p1")
	db.MustInsert("Publish", "y", "p1")
	r2 := db.MustInsert("Publish", "x", "p2")
	db.MustInsert("Publish", "y", "p2")
	db.MustInsert("Publish", "z", "p2")
	paths := []reldb.JoinPath{{Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
	}}}
	return NewExtractor(db, paths), []reldb.TupleID{r1, r2}
}

func TestExtractorVectorsAndCache(t *testing.T) {
	e, refs := extractorFixture(t)
	v, w := e.Features(e.Neighborhoods(refs[0]), e.Neighborhoods(refs[1]))
	if len(v) != 1 || len(w) != 1 {
		t.Fatalf("vector lengths %d, %d", len(v), len(w))
	}
	// r1's coauthors: {y:1}. r2's: {y:1/2, z:1/2}. Resem = min(1,.5)/(max(1,.5)+.5) = .5/1.5.
	if !approx(v[0], 0.5/1.5) {
		t.Errorf("resem feature = %v, want %v", v[0], 0.5/1.5)
	}
	if w[0] <= 0 {
		t.Errorf("walk feature = %v, want > 0", w[0])
	}
	// Repeated extraction reads the stored neighborhoods and stays
	// deterministic.
	first := e.Neighborhoods(refs[0])
	block, err := e.NeighborhoodsCtx(context.Background(), refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if block[0] != first {
		t.Error("the block does not hold the stored neighborhoods")
	}
	v2, w2 := e.Features(block[0], block[1])
	if v[0] != v2[0] || w[0] != w2[0] {
		t.Error("stored neighborhoods changed results")
	}
	// Stored neighborhoods expand to sorted sparse vectors.
	for _, r := range refs {
		for p, nb := range views(e.Neighborhoods(r)) {
			s := oracle.FlatNB(nb)
			for i := 1; i < len(s.Keys); i++ {
				if s.Keys[i-1] >= s.Keys[i] {
					t.Fatalf("ref %d path %d: keys not strictly ascending", r, p)
				}
			}
		}
	}
}
