package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// testUF is a disjoint-set with path halving, the oracle's own.
type testUF []int

func newTestUF(n int) testUF {
	u := make(testUF, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u testUF) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u testUF) union(a, b int) { u[u.find(a)] = u.find(b) }

// sharedNeighborComponents counts the connected components of the graph
// over nbs whose edges join two members holding a common neighbor tuple
// along some path with a nonzero resemblance or walk weight.
func sharedNeighborComponents(nbs []*prop.Neighborhoods, resemW, walkW []float64) int {
	uf := newTestUF(len(nbs))
	for p := range resemW {
		if resemW[p] == 0 && walkW[p] == 0 {
			continue
		}
		holder := make(map[reldb.TupleID]int)
		var segs []prop.Segment
		for i, nb := range nbs {
			v := nb.Path(p)
			segs = v.AppendSegments(segs[:0]) // in any order: only holders matter
			for _, sg := range segs {
				for _, t := range sg.Keys {
					if j, ok := holder[t]; ok {
						uf.union(i, j)
					} else {
						holder[t] = i
					}
				}
			}
		}
	}
	roots := 0
	for i := range uf {
		if uf.find(i) == i {
			roots++
		}
	}
	return roots
}

// sparseWeights gives each path a random weight and zeroes most of them,
// keeping at least one, so the shared-neighbor graph of a name can split.
func sparseWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	w[rng.Intn(n)] = rng.Float64() + 0.1
	for p := range w {
		if rng.Float64() < 0.3 {
			w[p] = rng.Float64() + 0.1
		}
	}
	return w
}

// randomTestWorld is a small DBLP world with random sizes and two injected
// names of random identity counts.
func randomTestWorld(t *testing.T, rng *rand.Rand) *dblp.World {
	t.Helper()
	cfg := dblp.DefaultConfig()
	cfg.Seed = rng.Int63()
	cfg.Communities = 2 + rng.Intn(3)
	cfg.AuthorsPerCommunity = 20 + rng.Intn(30)
	cfg.PapersPerAuthor = 2 + 2*rng.Float64()
	cfg.Ambiguous = nil
	for _, name := range []string{"Wei Wang", "Bin Yu"} {
		refs := make([]int, 2+rng.Intn(3))
		for i := range refs {
			refs[i] = 2 + rng.Intn(8)
		}
		cfg.Ambiguous = append(cfg.Ambiguous, dblp.AmbiguousName{Name: name, RefsPerAuthor: refs})
	}
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestGroupsConnectedInSharedNeighborGraph: two references have nonzero
// similarity only if they share a neighbor tuple along a positively
// weighted join path, since both measures sum over the shared
// neighborhood; and every cluster measure rates two clusters above zero
// only if some pair across them has nonzero similarity. So at any positive
// MinSim every output group is connected in the shared-neighbor graph of
// its own members. The oracle builds that graph from the raw neighborhoods,
// on the mini DBLP world under trained weights and on random worlds under
// random sparse weights, measures and thresholds.
func TestGroupsConnectedInSharedNeighborGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	measures := []cluster.Measure{
		cluster.Combined, cluster.ResemOnly, cluster.WalkOnly,
		cluster.CombinedArithmetic, cluster.SingleLink, cluster.CompleteLink,
	}
	var groups, splitNames int
	check := func(tag string, e *Engine) {
		resemW, walkW := e.Weights()
		for _, name := range e.NamesWithRefs(2) {
			refs := e.RefsForName(name)
			nbs := make([]*prop.Neighborhoods, len(refs))
			for i, r := range refs {
				nbs[i] = e.ext.Neighborhoods(r)
			}
			if sharedNeighborComponents(nbs, resemW, walkW) > 1 {
				splitNames++
			}
			pos := make(map[reldb.TupleID]int, len(refs))
			for i, r := range refs {
				pos[r] = i
			}
			// Log-uniform over [1e-6, 1e-1], plus the smallest positive one.
			minSims := []float64{math.SmallestNonzeroFloat64, math.Pow(10, -1-5*rng.Float64())}
			for _, minSim := range minSims {
				e.SetMinSim(minSim)
				e.SetMeasure(measures[rng.Intn(len(measures))])
				for _, g := range mustGroups(t, e, refs) {
					sub := make([]*prop.Neighborhoods, len(g))
					for k, r := range g {
						sub[k] = nbs[pos[r]]
					}
					if c := sharedNeighborComponents(sub, resemW, walkW); c != 1 {
						t.Fatalf("%s: %s at min-sim %g, %v: group of %d splits into %d shared-neighbor components",
							tag, name, minSim, e.cfg.Measure, len(g), c)
					}
					if len(g) > 1 {
						groups++
					}
				}
			}
		}
	}

	mini := newTestEngine(t, testWorld(t), true)
	if _, err := mini.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("mini world, trained", mini)
	for i := 0; i < 4; i++ {
		w := randomTestWorld(t, rng)
		e := newTestEngine(t, w, false)
		n := len(e.Paths())
		if err := e.SetWeights(sparseWeights(rng, n), sparseWeights(rng, n)); err != nil {
			t.Fatal(err)
		}
		check("random world", e)
	}
	// The oracle must have had something to separate: multi-member groups,
	// and names whose shared-neighbor graph has more than one component.
	if groups == 0 || splitNames == 0 {
		t.Fatalf("vacuous run: %d multi-member groups, %d split names", groups, splitNames)
	}
	t.Logf("%d multi-member groups checked; %d names with a split shared-neighbor graph", groups, splitNames)
}
