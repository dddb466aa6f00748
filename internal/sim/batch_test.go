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

// randBlock builds a block of n members with np paths each, mixing the
// regimes the postings kernel must handle: empty neighborhoods, small
// neighborhoods over a narrow key range (heavy overlap), ~100x larger ones,
// disjoint key ranges, subsets of an earlier member's keys, and duplicate
// members. Keys reach past keyRange, beyond a small scratch's initial size.
func randBlock(rng *rand.Rand, n, np, keyRange int) [][]nbMap {
	block := make([][]nbMap, n)
	for i := range block {
		if i > 0 && rng.Intn(6) == 0 {
			block[i] = block[rng.Intn(i)] // duplicate member
			continue
		}
		nbs := make([]nbMap, np)
		for p := range nbs {
			switch rng.Intn(6) {
			case 0: // empty
			case 1: // 1:100 size skew against the small ones
				nbs[p] = randNB(rng, 200+rng.Intn(100), 0, keyRange)
			case 2: // disjoint from everything but its own kind
				nbs[p] = randNB(rng, 1+rng.Intn(3), keyRange, 50)
			case 3: // subset of an earlier member's keys, fresh masses
				if i > 0 {
					nbs[p] = make(nbMap)
					for k := range block[rng.Intn(i)][p] {
						if rng.Intn(2) == 0 {
							nbs[p][k] = prop.FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
						}
					}
				}
			default:
				nbs[p] = randNB(rng, 1+rng.Intn(3), 0, 40)
			}
		}
		block[i] = nbs
	}
	return block
}

// sparseBlock converts a map-form block to the kernel's sparse form.
func sparseBlock(block [][]nbMap) [][]prop.SparseNeighborhood {
	out := make([][]prop.SparseNeighborhood, len(block))
	for i, nbs := range block {
		out[i] = make([]prop.SparseNeighborhood, len(nbs))
		for p, nb := range nbs {
			out[i][p] = nb.sparse()
		}
	}
	return out
}

// rowsOf runs every row of every path and returns the full upper triangle:
// got[p][i][j] for j > i, zero where Row reports no partner. It fails the
// test if a row reports a partner not after i, one partner twice, or one
// whose resemblance is zero: a partner must reach a child (a tuple, along
// a flat path) that the row member reaches, which makes its resemblance
// positive.
func rowsOf(t *testing.T, x *BlockIndex, s *BatchScratch, n, np int) [][][]Trip {
	t.Helper()
	got := make([][][]Trip, np)
	for p := range got {
		got[p] = make([][]Trip, n)
		for i := range got[p] {
			got[p][i] = make([]Trip, n)
			seen := make([]bool, n)
			js, out := x.Row(s, p, i)
			for k, j := range js {
				if int(j) <= i || seen[j] {
					t.Fatalf("path %d row %d: partner %d out of range or repeated", p, i, j)
				}
				if out[k].Resem == 0 {
					t.Fatalf("path %d row %d: partner %d reaches no child in common", p, i, j)
				}
				seen[j] = true
				got[p][i][j] = out[k]
			}
		}
	}
	return got
}

// groupedTol bounds the relative difference between the kernel and
// oracle.RefKernel along a grouped path, where the kernel adds a group's k
// shared children as one product instead of k terms in key order.
const groupedTol = 1e-12

// agrees reports whether the kernel's got matches the oracle's want: bit
// for bit along a flat path, within groupedTol, relative, along a grouped
// one.
func agrees(got, want float64, grouped bool) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return grouped && math.Abs(got-want) <= groupedTol*math.Max(math.Abs(got), math.Abs(want))
}

// groupedPath reports whether path p of the block is grouped: whether any
// member's neighborhood along it has a tail.
func groupedPath(block [][]prop.SparseNeighborhood, p int) bool {
	for _, nbs := range block {
		if nbs[p].Tail != nil {
			return true
		}
	}
	return false
}

// checkRows holds every pair of the block to oracle.RefKernel over the
// members' flat forms: bit for bit along flat paths, within groupedTol
// along grouped ones (see agrees). The block must come from nbMap.sparse,
// randGrouped or propagation, whose SumFwd totals are summed in key order;
// see oracle.RefKernel.
func checkRows(t *testing.T, x *BlockIndex, s *BatchScratch, block [][]prop.SparseNeighborhood) {
	t.Helper()
	if len(block) == 0 {
		return
	}
	np := len(block[0])
	got := rowsOf(t, x, s, len(block), np)
	for p := 0; p < np; p++ {
		grouped := groupedPath(block, p)
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				r, ab, ba := oracle.RefKernel(block[i][p], block[j][p])
				g := got[p][i][j]
				if !agrees(g.Resem, r, grouped) || !agrees(g.WalkAB, ab, grouped) || !agrees(g.WalkBA, ba, grouped) {
					t.Fatalf("path %d (grouped %v) pair (%d,%d): Row = %+v, oracle.RefKernel = (%v, %v, %v)", p, grouped, i, j, g, r, ab, ba)
				}
			}
		}
	}
}

// checkRestored fails unless the scratch's dense tuple array is all -1.
func checkRestored(t *testing.T, s *BatchScratch) {
	t.Helper()
	for k, v := range s.pos {
		if v != -1 {
			t.Fatalf("dense tuple array not restored: pos[%d] = %d", k, v)
		}
	}
}

// TestBatchedKernelMatchesPairKernel is the postings kernel's property
// test: on random blocks covering every regime of randBlock, with about
// half of the paths grouped, each pair's three outputs must match the
// pair-at-a-time reference, oracle.RefKernel, bit for bit along flat
// paths and within groupedTol along grouped ones (checkRows). The blocks
// must cover every case of a shared parent that the group term tells
// apart (shareStats). One index and one scratch are reused across blocks
// of different sizes, as the pools reuse them.
func TestBatchedKernelMatchesPairKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewBatchScratch(0) // deliberately undersized: Build must grow it
	var x BlockIndex
	var st shareStats
	for trial := 0; trial < 150; trial++ {
		block := mixedBlock(rng, 1+rng.Intn(24), 1+rng.Intn(3), 1000)
		x.Build(s, packBlock(block), nil)
		checkRows(t, &x, s, block)
		checkRestored(t, s)
		st.countShares(block)
	}
	if st.plain == 0 || st.common == 0 || st.zeroFB == 0 || st.allUnion == 0 {
		t.Fatalf("the blocks miss a case of shared parents: %+v", st)
	}
	t.Logf("shared parents: %+v", st)
}

// TestBatchedKernelMatchesMapKernels holds the postings kernel to the naive
// oracle.RefKernel oracle on a second stream of blocks, with a scratch
// sized up front so Build never grows it.
func TestBatchedKernelMatchesMapKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewBatchScratch(2048)
	var x BlockIndex
	for trial := 0; trial < 60; trial++ {
		block := mixedBlock(rng, 2+rng.Intn(12), 2, 1000)
		x.Build(s, packBlock(block), nil)
		checkRows(t, &x, s, block)
	}
}

// FuzzBatchedKernel drives the postings kernel with fuzzer-shaped blocks and
// cross-checks every pair against the oracle.RefKernel oracle (checkRows). The
// corpus bytes encode two member sizes, the member count and a seed, so the
// fuzzer explores size skew, overlap density and the growth of the dense
// array. In about half of the runs the path is grouped for every member
// instead (groupPaths), over a random fan-out tail whose targets share the
// flat members' key range.
func FuzzBatchedKernel(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(3), int64(1))
	f.Add(uint16(2), uint16(300), uint16(2), int64(2)) // 1:150 size skew
	f.Add(uint16(300), uint16(2), uint16(4), int64(3))
	f.Add(uint16(0), uint16(5), uint16(1), int64(4)) // empty members
	f.Fuzz(func(t *testing.T, aSize, bSize, nMembers uint16, seed int64) {
		const maxSize, maxMembers = 600, 12
		as, bs, n := int(aSize)%maxSize, int(bSize)%maxSize, 1+int(nMembers)%maxMembers
		rng := rand.New(rand.NewSource(seed))
		block := make([][]prop.SparseNeighborhood, n)
		for i := range block {
			// Alternate size classes so one block mixes them.
			size := as
			if i%2 == 1 {
				size = bs
			}
			block[i] = []prop.SparseNeighborhood{randNB(rng, size, rng.Intn(maxSize), 2*maxSize).sparse()}
		}
		groupPaths(rng, block, 1+(as+bs)%16, 3*maxSize)
		var x BlockIndex
		s := NewBatchScratch(0)
		x.Build(s, packBlock(block), nil)
		checkRows(t, &x, s, block)
		checkRestored(t, s)
	})
}

// TestBatchedKernelAllocs pins the warm paths at zero allocations, in the
// style of TestCompiledAllocsCeiling: once a pooled index and scratch have
// grown, rebuilding the index and running every row must not allocate, and
// neither must scoring a single pair through the extractor's pools into a
// reused buffer.
func TestBatchedKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	block := packBlock(mixedBlock(rng, 24, 3, 1000))
	s := NewBatchScratch(0)
	var x BlockIndex
	var out []Trip
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"block build and rows", func() {
			x.Build(s, block, nil)
			for p := 0; p < 3; p++ {
				for i := range block {
					x.Row(s, p, i)
				}
			}
		}},
		{"single pair", func() { out = pairExt.Pair(block[0], block[1], out) }},
	} {
		if raceEnabled && c.name == "single pair" {
			continue // the race detector makes sync.Pool drop items at random
		}
		// The first, unmeasured run grows everything.
		if allocs := testing.AllocsPerRun(50, c.run); allocs != 0 {
			t.Errorf("warm %s allocates %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// TestBatchScratchGrow pins the growth path: an undersized scratch must
// expand to cover the largest key it meets and keep the all--1 invariant
// in the grown region.
func TestBatchScratchGrow(t *testing.T) {
	s := NewBatchScratch(4)
	a := nbMap{
		reldb.TupleID(1000): {Fwd: 0.5, Bwd: 0.5},
		reldb.TupleID(2):    {Fwd: 0.5, Bwd: 0.5},
	}.sparse()
	b := nbMap{
		reldb.TupleID(1000): {Fwd: 0.25, Bwd: 1},
		reldb.TupleID(3000): {Fwd: 0.75, Bwd: 1},
	}.sparse()
	block := [][]prop.SparseNeighborhood{{a}, {b}}
	var x BlockIndex
	x.Build(s, packBlock(block), nil)
	if len(s.pos) < 3001 {
		t.Fatalf("scratch did not grow: len(pos) = %d, want >= 3001", len(s.pos))
	}
	checkRestored(t, s)
	checkRows(t, &x, s, block)
}

// TestBatchedKernelConcurrentRows runs the rows of one shared index from
// several goroutines, each with its own scratch, and requires the serial
// results. Under -race it checks that rows only read the index.
func TestBatchedKernelConcurrentRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const np = 3
	block := mixedBlock(rng, 40, np, 1000)
	var x BlockIndex
	x.Build(NewBatchScratch(0), packBlock(block), nil)
	want := rowsOf(t, &x, NewBatchScratch(0), len(block), np)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewBatchScratch(0)
			for r := range block {
				i := (r + 5*w) % len(block) // different goroutines, different row orders
				for p := 0; p < np; p++ {
					got := make([]Trip, len(block))
					js, out := x.Row(s, p, i)
					for k, j := range js {
						got[j] = out[k]
					}
					for j := i + 1; j < len(block); j++ {
						if got[j] != want[p][i][j] {
							errs <- "concurrent row differs from the serial one"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// postingKeys returns the keys nb posts under: its tuples when flat, the
// parents of its group records when grouped.
func postingKeys(nb prop.SparseNeighborhood) []reldb.TupleID {
	if nb.Tail == nil {
		return nb.Keys
	}
	var keys []reldb.TupleID
	for _, k := range nb.Keys {
		if k >= 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBlockIndexVisits pins the kernel's work counters: for every path,
// Visits equals a brute-force count of (i < j, shared posting key) triples
// and NumPostings one of the (member, key) pairs whose key two or more
// members hold, a key being a parent along a grouped path and a tuple
// along a flat one. A path left out of the build has neither and no
// partners.
func TestBlockIndexVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const np = 3
	s := NewBatchScratch(0)
	var x BlockIndex
	for trial := 0; trial < 30; trial++ {
		block := mixedBlock(rng, 1+rng.Intn(30), np, 1000)
		x.Build(s, packBlock(block), func(p int) bool { return p != 1 })
		for p := 0; p < np; p++ {
			visits, postings := 0, 0
			if p != 1 {
				holders := make(map[reldb.TupleID]int)
				for i := range block {
					for _, k := range postingKeys(block[i][p]) {
						visits += holders[k]
						holders[k]++
					}
				}
				for _, c := range holders {
					if c > 1 {
						postings += c
					}
				}
			}
			if got := x.Visits(p); got != visits {
				t.Fatalf("trial %d path %d: Visits = %d, brute force %d", trial, p, got, visits)
			}
			if got := x.NumPostings(p); got != postings {
				t.Fatalf("trial %d path %d: NumPostings = %d, brute force %d", trial, p, got, postings)
			}
		}
		for i := range block {
			if js, _ := x.Row(s, 1, i); len(js) != 0 {
				t.Fatalf("trial %d: row %d of an unbuilt path has %d partners", trial, i, len(js))
			}
		}
	}
}

// TestNeighborhoodsCtxMatchesNeighborhoods checks a block returns the
// same stored values as the per-reference path, whether the block
// propagated them (cold) or only loaded them (warm).
func TestNeighborhoodsCtxMatchesNeighborhoods(t *testing.T) {
	ext, refs := extractorFixture(t)
	for _, state := range []string{"cold", "warm"} {
		block, err := ext.NeighborhoodsCtx(context.Background(), refs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range refs {
			want := ext.Neighborhoods(r)
			if block[i] != want {
				t.Fatalf("%s block[%d] is not ref %d's stored result", state, i, r)
			}
		}
	}
}
