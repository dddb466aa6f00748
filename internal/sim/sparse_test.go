package sim

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"distinct/internal/oracle"
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

// TestSparseKernelsMatchMapKernels is the single-pair property test: on
// randomized neighborhoods — including empty, disjoint, subset, and
// heavily asymmetric-size operands — Pair's three outputs must equal the
// naive oracle.RefKernel's bit for bit, in both operand orders.
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
	for name, g := range cases {
		for trial := 0; trial < 50; trial++ {
			am, bm := g()
			a, b := am.sparse(), bm.sparse()
			r, ab, ba := pairKernel(a, b)
			rr, rab, rba := pairKernel(b, a)
			wr, wab, wba := oracle.RefKernel(a, b)
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
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("%s trial %d: %s = %v, oracle.RefKernel %v (|Δ| = %g)",
						name, trial, c.what, c.got, c.want, math.Abs(c.got-c.want))
				}
			}
		}
	}
}

// TestNeighborhoodsConcurrentMiss: many goroutines request unstored
// neighborhoods concurrently, one reference at a time, and every one of
// them must see the single result the store keeps. Run under -race
// (scripts/check.sh does) to detect regressions.
func TestNeighborhoodsConcurrentMiss(t *testing.T) {
	ext, refs := extractorFixture(t)
	seq, _ := extractorFixture(t)
	want := make([][]prop.SparseNeighborhood, len(refs))
	for i, r := range refs {
		want[i] = views(seq.Neighborhoods(r))
	}

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	seen := make([][]*prop.Neighborhoods, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		seen[g] = make([]*prop.Neighborhoods, len(refs))
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Fresh misses every round: goroutines race on the same refs.
				i := (g + round) % len(refs)
				got := ext.Neighborhoods(refs[i])
				seen[g][i] = got
				for p, v := range views(got) {
					if len(v.Keys) != len(want[i][p].Keys) || v.SumFwd != want[i][p].SumFwd {
						errs <- "concurrent Neighborhoods returned a wrong result"
						return
					}
				}
				// Interleave feature calls on the stored neighborhoods.
				ext.Features(got, ext.Neighborhoods(refs[(i+1)%len(refs)]))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	block, err := ext.NeighborhoodsCtx(context.Background(), refs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for g := range seen {
		for i, p := range seen[g] {
			if p != nil && p != block[i] {
				t.Fatalf("goroutine %d saw ref %d's neighborhoods in a result the store does not hold", g, refs[i])
			}
		}
	}
}
