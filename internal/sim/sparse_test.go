package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// randNB builds a random neighborhood with size keys drawn from
// [base, base+keyRange).
func randNB(rng *rand.Rand, size, base, keyRange int) nbMap {
	n := make(nbMap)
	for len(n) < size {
		n[reldb.TupleID(base+rng.Intn(keyRange))] = prop.FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
	}
	return n
}

// TestSparseKernelsMatchMapKernels is the scalar kernel's property test: on
// randomized neighborhoods — including empty, disjoint, subset, and
// heavily asymmetric-size operands (the case that triggers the galloping
// scan) — PairKernel's three outputs must agree with the naive refKernel to
// 1e-12, in both operand orders.
func TestSparseKernelsMatchMapKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type gen func() (nbMap, nbMap)
	cases := map[string]gen{
		"both empty": func() (nbMap, nbMap) {
			return nbMap{}, nil
		},
		"one empty": func() (nbMap, nbMap) {
			return randNB(rng, 1+rng.Intn(10), 0, 40), nil
		},
		"disjoint": func() (nbMap, nbMap) {
			return randNB(rng, 1+rng.Intn(10), 0, 100), randNB(rng, 1+rng.Intn(10), 100, 100)
		},
		"overlapping": func() (nbMap, nbMap) {
			return randNB(rng, 1+rng.Intn(20), 0, 30), randNB(rng, 1+rng.Intn(20), 0, 30)
		},
		"subset": func() (nbMap, nbMap) {
			a := randNB(rng, 5+rng.Intn(20), 0, 1000)
			b := make(nbMap)
			for k := range a {
				if len(b) == 3 {
					break
				}
				b[k] = prop.FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
			}
			return a, b
		},
		"asymmetric 1 vs 400": func() (nbMap, nbMap) {
			return randNB(rng, 1, 0, 1000), randNB(rng, 400, 0, 1000)
		},
		"asymmetric 3 vs 200": func() (nbMap, nbMap) {
			return randNB(rng, 3, 0, 600), randNB(rng, 200, 0, 600)
		},
		"asymmetric 200 vs 3": func() (nbMap, nbMap) {
			return randNB(rng, 200, 0, 600), randNB(rng, 3, 0, 600)
		},
		"asymmetric small at tail": func() (nbMap, nbMap) {
			return randNB(rng, 2, 900, 100), randNB(rng, 300, 0, 1000)
		},
	}
	const tol = 1e-12
	for name, g := range cases {
		for trial := 0; trial < 50; trial++ {
			am, bm := g()
			a, b := am.sparse(), bm.sparse()
			r, ab, ba := PairKernel(a, b)
			rr, rab, rba := PairKernel(b, a)
			wr, wab, wba := refKernel(a, b)
			checks := []struct {
				what      string
				got, want float64
			}{
				{"resem", r, wr},
				{"resem(rev)", rr, wr},
				{"walkAB", ab, wab},
				{"walkBA", ba, wba},
				{"walkAB(rev)", rab, wba},
				{"walkBA(rev)", rba, wab},
			}
			for _, c := range checks {
				if math.Abs(c.got-c.want) > tol {
					t.Fatalf("%s trial %d: %s = %v, refKernel %v (|Δ| = %g)",
						name, trial, c.what, c.got, c.want, math.Abs(c.got-c.want))
				}
			}
		}
	}
}

// TestGallopTo pins the gallop search helper on its boundary cases.
func TestGallopTo(t *testing.T) {
	keys := []reldb.TupleID{2, 4, 6, 8, 10, 12, 14, 16, 100, 200}
	for _, tc := range []struct {
		lo   int
		k    reldb.TupleID
		want int
	}{
		{0, 1, 0},    // before everything
		{0, 2, 0},    // exact at lo
		{0, 3, 1},    // between
		{0, 16, 7},   // exact after galloping
		{0, 17, 8},   // into the gap
		{0, 201, 10}, // past the end
		{5, 12, 5},   // exact at lo, nonzero lo
		{5, 13, 6},   // advance from nonzero lo
		{9, 200, 9},  // last element
		{10, 5, 10},  // lo already at end
	} {
		if got := gallopTo(keys, tc.lo, tc.k); got != tc.want {
			t.Errorf("gallopTo(lo=%d, k=%d) = %d, want %d", tc.lo, tc.k, got, tc.want)
		}
	}
}

// TestNeighborhoodsConcurrentMiss is the regression test for the cache
// race: many goroutines request uncached neighborhoods concurrently —
// without Prefetch — which used to write the cache map unsynchronized.
// Run under -race (scripts/check.sh does) to detect regressions.
func TestNeighborhoodsConcurrentMiss(t *testing.T) {
	ext, refs := extractorFixture(t)
	seq, _ := extractorFixture(t)
	want := make([][]prop.SparseNeighborhood, len(refs))
	for i, r := range refs {
		want[i] = seq.Neighborhoods(r)
	}

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Fresh misses every round: goroutines race on the same refs.
				i := (g + round) % len(refs)
				got := ext.Neighborhoods(refs[i])
				for p := range got {
					if len(got[p].Keys) != len(want[i][p].Keys) || got[p].SumFwd != want[i][p].SumFwd {
						errs <- "concurrent Neighborhoods returned a wrong result"
						return
					}
				}
				// Interleave vector calls, which share the same cache path.
				ext.ResemVector(refs[i], refs[(i+1)%len(refs)])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if ext.CacheSize() != len(refs) {
		t.Fatalf("cache size = %d, want %d", ext.CacheSize(), len(refs))
	}
}
