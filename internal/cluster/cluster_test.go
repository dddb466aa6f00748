package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// clustersOf and dendrogramOf run m on a background context, which can
// neither end nor carry a fault registry.
func clustersOf(m Matrix, opts Options) [][]int { return clustersOn(nil, m, opts) }

// clustersOn is clustersOf on the scratch s, or on a pooled one when s is
// nil.
func clustersOn(s *scratch, m Matrix, opts Options) [][]int {
	res, err := run(context.Background(), m, opts, s)
	if err != nil {
		panic(err)
	}
	return res.Clusters
}

func dendrogramOf(m Matrix, opts Options) *Dendrogram { return dendrogramOn(nil, m, opts) }

func dendrogramOn(s *scratch, m Matrix, opts Options) *Dendrogram {
	opts.Stop = StopDendrogram
	res, err := run(context.Background(), m, opts, s)
	if err != nil {
		panic(err)
	}
	return res.Dendrogram
}

// at returns the cell of pair (x, y), x != y, oriented so WAB flows from x
// to y.
func at(m Matrix, x, y int) Cell {
	if x < y {
		return m.Row(x)[y-x-1]
	}
	c := m.Row(y)[x-y-1]
	c.WAB, c.WBA = c.WBA, c.WAB
	return c
}

// set writes the cell of pair (x, y), x != y, with c.WAB flowing from x to
// y.
func set(m Matrix, x, y int, c Cell) {
	if x > y {
		x, y = y, x
		c.WAB, c.WBA = c.WBA, c.WAB
	}
	m.Row(x)[y-x-1] = c
}

// blobs builds a Matrix with two tight groups: indexes [0,mid) and [mid,n).
// Within-group resemblance/walk is high, cross-group is low.
func blobs(n, mid int, within, cross float64) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := cross
			if (i < mid) == (j < mid) {
				v = within
			}
			set(m, i, j, Cell{R: v, WAB: v / 2, WBA: v / 2})
		}
	}
	return m
}

func TestAgglomerateTwoBlobs(t *testing.T) {
	m := blobs(6, 3, 0.9, 0.001)
	got := clustersOf(m, Options{Measure: Combined, MinSim: 0.05})
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clusters = %v, want %v", got, want)
	}
}

func TestAgglomerateMinSimExtremes(t *testing.T) {
	m := blobs(5, 2, 0.9, 0.1)
	// Impossibly high threshold: all singletons.
	got := clustersOf(m, Options{Measure: Combined, MinSim: 10})
	if len(got) != 5 {
		t.Errorf("high min-sim gave %d clusters, want 5", len(got))
	}
	// Zero threshold: everything merges into one cluster.
	got = clustersOf(m, Options{Measure: Combined, MinSim: 0})
	if len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("zero min-sim gave %v", got)
	}
}

// TestAgglomerateTrivialSizes also covers the Agglomerate wrapper, which
// must refuse a reference count that is not the matrix's size.
func TestAgglomerateTrivialSizes(t *testing.T) {
	if got := Agglomerate(0, Matrix{}, Options{}); got != nil {
		t.Errorf("n=0 gave %v", got)
	}
	got := Agglomerate(1, NewMatrix(1), Options{MinSim: 0.1})
	if len(got) != 1 || got[0][0] != 0 {
		t.Errorf("n=1 gave %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Agglomerate of 3 references over a 2-reference matrix did not panic")
		}
	}()
	Agglomerate(3, NewMatrix(2), Options{})
}

func TestMeasureSelectivity(t *testing.T) {
	// Resemblance links 0-1 strongly; walk links 1-2 strongly.
	m := NewMatrix(3)
	set(m, 0, 1, Cell{R: 0.9})
	set(m, 1, 2, Cell{WAB: 0.9, WBA: 0.9})
	r := clustersOf(m, Options{Measure: ResemOnly, MinSim: 0.5})
	if !reflect.DeepEqual(r, [][]int{{0, 1}, {2}}) {
		t.Errorf("ResemOnly = %v", r)
	}
	w := clustersOf(m, Options{Measure: WalkOnly, MinSim: 0.3})
	if !reflect.DeepEqual(w, [][]int{{0}, {1, 2}}) {
		t.Errorf("WalkOnly = %v", w)
	}
	// Combined needs both signals; with each pair missing one, geometric
	// mean is 0 and nothing merges.
	c := clustersOf(m, Options{Measure: Combined, MinSim: 0.01})
	if len(c) != 3 {
		t.Errorf("Combined = %v, want singletons", c)
	}
}

func TestSingleVsCompleteLink(t *testing.T) {
	// A chain: 0-1 and 1-2 similar, 0-2 dissimilar.
	m := NewMatrix(3)
	set(m, 0, 1, Cell{R: 0.9})
	set(m, 1, 2, Cell{R: 0.8})
	s := clustersOf(m, Options{Measure: SingleLink, MinSim: 0.5})
	if len(s) != 1 {
		t.Errorf("SingleLink chained clustering = %v, want one cluster", s)
	}
	c := clustersOf(m, Options{Measure: CompleteLink, MinSim: 0.5})
	// Complete link merges 0-1 (0.9) but then min(0-2,1-2)=0 blocks.
	if len(c) != 2 {
		t.Errorf("CompleteLink = %v, want two clusters", c)
	}
}

func TestCombinedGeometricVsArithmetic(t *testing.T) {
	// One pair has balanced signals, the other extremely lopsided ones with
	// a higher arithmetic mean. Geometric must prefer balance.
	m := NewMatrix(4)
	set(m, 0, 1, Cell{R: 0.4, WAB: 0.4, WBA: 0.4})   // geometric 0.4, arithmetic 0.4
	set(m, 2, 3, Cell{R: 0.9, WAB: 0.01, WBA: 0.01}) // geometric ~0.095, arithmetic ~0.455
	g := clustersOf(m, Options{Measure: Combined, MinSim: 0.2})
	if !reflect.DeepEqual(g, [][]int{{0, 1}, {2}, {3}}) {
		t.Errorf("geometric measure = %v", g)
	}
	a := clustersOf(m, Options{Measure: CombinedArithmetic, MinSim: 0.2})
	if !reflect.DeepEqual(a, [][]int{{0, 1}, {2, 3}}) {
		t.Errorf("arithmetic measure = %v", a)
	}
}

func TestMeasureString(t *testing.T) {
	for m, want := range map[Measure]string{
		Combined: "combined", ResemOnly: "set-resemblance", WalkOnly: "random-walk",
		CombinedArithmetic: "combined-arithmetic", SingleLink: "single-link",
		CompleteLink: "complete-link", Measure(99): "Measure(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Measure(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func randomMatrix(rng *rand.Rand, n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := rng.Float64()
			wab := rng.Float64()
			set(m, i, j, Cell{R: r, WAB: wab, WBA: rng.Float64()})
		}
	}
	return m
}

// bruteForce re-implements agglomerative clustering naively: every step
// recomputes each cluster-pair similarity from the raw matrices. It mirrors
// Run's id-based tie-breaking (lower pair of cluster ids wins).
func bruteForce(n int, m Matrix, opts Options) [][]int {
	type cl struct {
		id      int
		members []int
	}
	var clusters []cl
	for i := 0; i < n; i++ {
		clusters = append(clusters, cl{id: i, members: []int{i}})
	}
	nextID := n
	simOf := func(a, b cl) float64 {
		lo, hi := a, b
		if lo.id > hi.id {
			lo, hi = hi, lo
		}
		var sumR, minR, maxR, wAB, wBA float64
		minR = math.Inf(1)
		maxR = math.Inf(-1)
		for _, x := range lo.members {
			for _, y := range hi.members {
				c := at(m, x, y)
				sumR += c.R
				minR = math.Min(minR, c.R)
				maxR = math.Max(maxR, c.R)
				wAB += c.WAB
				wBA += c.WBA
			}
		}
		pairs := float64(len(lo.members) * len(hi.members))
		avg := sumR / pairs
		coll := (wAB/float64(len(lo.members)) + wBA/float64(len(hi.members))) / 2
		switch opts.Measure {
		case ResemOnly:
			return avg
		case WalkOnly:
			return coll
		case CombinedArithmetic:
			return (avg + coll) / 2
		case SingleLink:
			return maxR
		case CompleteLink:
			return minR
		default:
			return math.Sqrt(avg * coll)
		}
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, math.Inf(-1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				a, b := clusters[i], clusters[j]
				lo, hi := a.id, b.id
				if lo > hi {
					lo, hi = hi, lo
				}
				s := simOf(a, b)
				better := s > best
				if !better && s == best && bi >= 0 {
					plo, phi := clusters[bi].id, clusters[bj].id
					if plo > phi {
						plo, phi = phi, plo
					}
					better = lo < plo || (lo == plo && hi < phi)
				}
				if better {
					bi, bj, best = i, j, s
				}
			}
		}
		if best < opts.MinSim {
			break
		}
		merged := cl{id: nextID, members: append(append([]int(nil),
			clusters[bi].members...), clusters[bj].members...)}
		nextID++
		var rest []cl
		for k, c := range clusters {
			if k != bi && k != bj {
				rest = append(rest, c)
			}
		}
		clusters = append(rest, merged)
	}
	var out [][]int
	for _, c := range clusters {
		ms := append([]int(nil), c.members...)
		for i := 1; i < len(ms); i++ {
			for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
				ms[j], ms[j-1] = ms[j-1], ms[j]
			}
		}
		out = append(out, ms)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestIncrementalMatchesBruteForce is the Section 4.2 validation: the
// incremental aggregation must produce exactly the clustering a full
// recomputation produces, for every measure.
func TestIncrementalMatchesBruteForce(t *testing.T) {
	measures := []Measure{Combined, ResemOnly, WalkOnly, CombinedArithmetic, SingleLink, CompleteLink}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := randomMatrix(rng, n)
		minSim := rng.Float64() * 0.5
		for _, meas := range measures {
			opts := Options{Measure: meas, MinSim: minSim}
			fast := clustersOf(m, opts)
			slow := bruteForce(n, m, opts)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("seed %d measure %v: incremental %v != brute force %v",
					seed, meas, fast, slow)
			}
		}
	}
}

func TestAgglomerateDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 15)
	opts := Options{Measure: Combined, MinSim: 0.1}
	a := clustersOf(m, opts)
	b := clustersOf(m, opts)
	if !reflect.DeepEqual(a, b) {
		t.Error("clustering is not deterministic")
	}
}

// TestPartitionInvariant: output is always a partition of 0..n-1.
func TestPartitionInvariant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		m := randomMatrix(rng, n)
		got := clustersOf(m, Options{Measure: Combined, MinSim: rng.Float64()})
		seen := make(map[int]bool)
		for _, c := range got {
			if len(c) == 0 {
				t.Fatal("empty cluster emitted")
			}
			for _, x := range c {
				if x < 0 || x >= n || seen[x] {
					t.Fatalf("seed %d: bad partition %v", seed, got)
				}
				seen[x] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("seed %d: partition misses items: %v", seed, got)
		}
	}
}
