package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/oracle"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// The core layer's end-to-end oracle. Random small DBLP worlds are opened
// with random path weights (the engine's own or a degraded top-k cut of
// them), a random Measure and a random MinSim. For every ambiguous name the
// engine's combined matrices are held to oracle.RefKernel run on the
// engine's own compiled neighborhoods, path by path, with the weights
// normalised and cut by the test itself and the per-path values combined
// in ascending path order, as Section 4 combines them. The engine's groups
// are held to a direct cluster.Run on those oracle matrices with the test's
// Measure and MinSim.
//
// The kernel scores a fan-out tail's shared children one parent group at a
// time, as the group's child count times one term (sim.BlockIndex), while
// the oracle adds one term per child in key order, so the two agree to
// rounding, not bit for bit: cells are compared within oracleRelTol. A
// group that differs is accepted only where the oracle run was that close
// to a tie (nearTie).

// oracleRelTol bounds the relative difference between an engine matrix
// cell and the oracle's.
const oracleRelTol = 1e-12

// oracleWorld draws a small random DBLP world: a few communities, one to
// three ambiguous names of two to five identities each, and sometimes
// citations or career windows, which add join paths.
func oracleWorld(rng *rand.Rand) (*dblp.World, error) {
	cfg := dblp.DefaultConfig()
	cfg.Seed = rng.Int63()
	cfg.Communities = 2 + rng.Intn(3)
	cfg.AuthorsPerCommunity = 15 + rng.Intn(25)
	cfg.PapersPerAuthor = 2 + 2*rng.Float64()
	cfg.ConfsPerCommunity = 1 + rng.Intn(3)
	cfg.GeneralConfs = 1 + rng.Intn(2)
	if rng.Intn(3) == 0 {
		cfg.CitationsPerPaper, cfg.SelfCiteProb = 1+rng.Intn(2), rng.Float64()
	}
	if rng.Intn(3) == 0 {
		cfg.CareerSpanYears = 3 + rng.Intn(6)
	}
	cfg.Ambiguous = nil
	for k := range 1 + rng.Intn(3) {
		refs := make([]int, 2+rng.Intn(4))
		for i := range refs {
			refs[i] = 1 + rng.Intn(12)
		}
		cfg.Ambiguous = append(cfg.Ambiguous, dblp.AmbiguousName{Name: fmt.Sprintf("Oracle Name%d", k), RefsPerAuthor: refs})
	}
	return dblp.Generate(cfg)
}

// oracleWeights draws a raw weight vector: non-negative, about a third of
// the entries zero, at least one positive.
func oracleWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for p := range w {
		if rng.Intn(3) != 0 {
			w[p] = rng.ExpFloat64()
		}
	}
	w[rng.Intn(n)] += 0.5
	return w
}

// oracleNormalize scales non-negative w to sum 1, the sum taken in
// ascending path order.
func oracleNormalize(w []float64) []float64 {
	var sum float64
	for _, v := range w {
		sum += v
	}
	out := make([]float64, len(w))
	for p, v := range w {
		out[p] = v / sum
	}
	return out
}

// oracleTopK keeps the k paths of largest resem+walk weight, ties to the
// lower path, and renormalises both vectors; weights with k or fewer
// positive paths come back unchanged.
func oracleTopK(resem, walk []float64, k int) ([]float64, []float64) {
	var ranked []int
	for p := range resem {
		if resem[p] > 0 || walk[p] > 0 {
			ranked = append(ranked, p)
		}
	}
	if len(ranked) <= k {
		return resem, walk
	}
	slices.SortStableFunc(ranked, func(a, b int) int {
		return cmp.Compare(resem[b]+walk[b], resem[a]+walk[a])
	})
	r, w := make([]float64, len(resem)), make([]float64, len(walk))
	for _, p := range ranked[:k] {
		r[p], w[p] = resem[p], walk[p]
	}
	return oracleNormalize(r), oracleNormalize(w)
}

// oracleMatrix combines oracle.RefKernel over every pair of nbs and every
// path, in ascending path order, under weights resem and walk.
func oracleMatrix(nbs []*prop.Neighborhoods, resem, walk []float64) cluster.Matrix {
	n := len(nbs)
	flat := make([][]prop.SparseNeighborhood, n)
	for i, nb := range nbs {
		flat[i] = make([]prop.SparseNeighborhood, nb.NumPaths())
		for p := range flat[i] {
			flat[i][p] = oracle.FlatNB(nb.Path(p))
		}
	}
	m := cluster.NewMatrix(n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			c := &m.Row(i)[j-i-1]
			for p := range resem {
				r, ab, ba := oracle.RefKernel(flat[i][p], flat[j][p])
				c.R += resem[p] * r
				c.WAB += walk[p] * ab
				c.WBA += walk[p] * ba
			}
		}
	}
	return m
}

// withinTol reports whether got agrees with want to oracleRelTol, relative.
func withinTol(got, want float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return math.Abs(got-want) <= oracleRelTol*math.Max(math.Abs(got), math.Abs(want))
}

// nearTie reports whether clustering m under measure and minSim came within
// 1e-9 relative of a different decision: two merge similarities at or
// above the cut that close to each other, or one that close to minSim. A
// competing candidate that close is what a matrix perturbation of
// oracleRelTol can flip; the check over all accepted merges is a superset
// of the exact runner-up test.
func nearTie(m cluster.Matrix, measure cluster.Measure, minSim float64) bool {
	const tie = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tie*math.Max(math.Abs(a), math.Abs(b)) }
	var sims []float64
	res, err := cluster.Run(context.Background(), m, cluster.Options{Measure: measure, Stop: cluster.StopDendrogram})
	if err != nil {
		panic(err)
	}
	for _, mg := range res.Dendrogram.Merges {
		if near(mg.Sim, minSim) {
			return true
		}
		if mg.Sim >= minSim {
			sims = append(sims, mg.Sim)
		}
	}
	slices.Sort(sims)
	for k := 1; k < len(sims); k++ {
		if near(sims[k-1], sims[k]) {
			return true
		}
	}
	return false
}

// checkEngineOracle runs the oracle comparison on the world and engine
// configurations drawn from seed.
func checkEngineOracle(t *testing.T, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	w, err := oracleWorld(rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(ctx, w.DB, Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Workers:     1 + rng.Intn(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	np := len(e.Paths())
	for c := range 3 {
		rawR, rawW := oracleWeights(rng, np), oracleWeights(rng, np)
		if err := e.SetWeights(rawR, rawW); err != nil {
			t.Fatal(err)
		}
		ew, resem, walk := e.w, oracleNormalize(rawR), oracleNormalize(rawW)
		cut := 0
		if rng.Intn(3) == 0 {
			cut = 1 + rng.Intn(np)
			ew, _ = e.w.degraded(cut)
			resem, walk = oracleTopK(resem, walk, cut)
		}
		measure := cluster.Measure(rng.Intn(6))
		minSim := math.Pow(10, -3.5+2.5*rng.Float64())
		if err := e.SetMeasure(measure); err != nil {
			t.Fatal(err)
		}
		e.SetMinSim(minSim)
		for _, name := range w.AmbiguousNames() {
			refs := e.RefsForName(name)
			what := fmt.Sprintf("seed %d case %d (%s, min-sim %g, cut %d) %s (%d refs)", seed, c, measure, minSim, cut, name, len(refs))
			m, err := e.similarities(ctx, refs, ew, nil)
			if err != nil {
				t.Fatal(err)
			}
			nbs, err := e.ext.NeighborhoodsCtx(ctx, refs, 1)
			if err != nil {
				t.Fatal(err)
			}
			om := oracleMatrix(nbs, resem, walk)
			if m.N != om.N || len(m.Cells) != len(om.Cells) {
				t.Fatalf("%s: %d references in %d cells, oracle %d in %d", what, m.N, len(m.Cells), om.N, len(om.Cells))
			}
			for i := range refs {
				for j := i + 1; j < len(refs); j++ {
					c, oc := m.Row(i)[j-i-1], om.Row(i)[j-i-1]
					if !withinTol(c.R, oc.R) || !withinTol(c.WAB, oc.WAB) || !withinTol(c.WBA, oc.WBA) {
						t.Fatalf("%s: cell (%d,%d) = %+v, oracle %+v", what, i, j, c, oc)
					}
				}
			}
			res, err := e.clustered(ctx, refs, ew, cluster.StopMinSim)
			if err != nil {
				t.Fatal(err)
			}
			got := groupRefs(refs, res.Clusters)
			want := clusterAt(refs, om, measure, minSim)
			if !slices.EqualFunc(got, want, slices.Equal[[]reldb.TupleID]) {
				if !nearTie(om, measure, minSim) {
					t.Fatalf("%s: groups %v, oracle %v", what, got, want)
				}
				t.Logf("%s: groups differ at a near tie", what)
			}
		}
	}
}

// TestEngineMatchesOracle runs the end-to-end oracle comparison over a
// fixed set of random worlds.
func TestEngineMatchesOracle(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 2
	}
	for seed := range int64(seeds) {
		checkEngineOracle(t, seed+1)
	}
}

// FuzzEngine drives the end-to-end oracle comparison with fuzzer-chosen
// seeds: each seed draws a world, weights, Measure and MinSim.
func FuzzEngine(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed + 100)
	}
	f.Fuzz(checkEngineOracle)
}
