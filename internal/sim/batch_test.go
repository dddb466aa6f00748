package sim

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

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
// test if a row reports a partner not after i, or one partner twice.
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
				seen[j] = true
				got[p][i][j] = out[k]
			}
		}
	}
	return got
}

// checkRows holds every pair of the block to refKernel over the members'
// flat forms, bit for bit; members may be flat or grouped. The block must
// come from nbMap.sparse, randGrouped or propagation, whose SumFwd totals
// are summed in key order; see refKernel.
func checkRows(t *testing.T, x *BlockIndex, s *BatchScratch, block [][]prop.SparseNeighborhood) {
	t.Helper()
	if len(block) == 0 {
		return
	}
	np := len(block[0])
	got := rowsOf(t, x, s, len(block), np)
	for p := 0; p < np; p++ {
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				r, ab, ba := refKernel(block[i][p], block[j][p])
				g := got[p][i][j]
				if math.Float64bits(g.Resem) != math.Float64bits(r) ||
					math.Float64bits(g.WalkAB) != math.Float64bits(ab) ||
					math.Float64bits(g.WalkBA) != math.Float64bits(ba) {
					t.Fatalf("path %d pair (%d,%d): Row = %+v, refKernel = (%v, %v, %v)", p, i, j, g, r, ab, ba)
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
// test: on random blocks covering every regime of randBlock, with grouped
// members mixed in, each pair's three outputs must be bit-identical to the
// pair-at-a-time reference, refKernel — a fixed accumulation order and
// fixed float expressions are what keep the golden outputs stable. One
// index and one scratch are reused across blocks of different sizes, as
// the pools reuse them.
func TestBatchedKernelMatchesPairKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewBatchScratch(0) // deliberately undersized: Build must grow it
	var x BlockIndex
	for trial := 0; trial < 150; trial++ {
		block := mixedBlock(rng, 1+rng.Intn(24), 1+rng.Intn(3), 1000)
		x.Build(s, packBlock(block), nil)
		checkRows(t, &x, s, block)
		checkRestored(t, s)
	}
}

// TestBatchedKernelMatchesMapKernels holds the postings kernel to the naive
// refKernel oracle on a second stream of mixed blocks, with a scratch
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
// cross-checks every pair against the refKernel oracle bit for bit. The
// corpus bytes encode two member sizes, the member count and a seed, so the
// fuzzer explores size skew, overlap density and the growth of the dense
// array. About a third of the members are grouped neighborhoods over one
// random fan-out tail whose targets share the flat members' key range.
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
		mixGrouped(rng, block, randTail(rng, 1+(as+bs)%16, 3*maxSize))
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

// TestBlockIndexVisits pins the kernel's work counter: for every path it
// equals a brute-force count of (i < j, shared tuple) triples. A path left
// out of the build has no visits and no partners.
func TestBlockIndexVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const np = 3
	s := NewBatchScratch(0)
	var x BlockIndex
	for trial := 0; trial < 30; trial++ {
		block := mixedBlock(rng, 1+rng.Intn(30), np, 1000)
		x.Build(s, packBlock(block), func(p int) bool { return p != 1 })
		for p := 0; p < np; p++ {
			want := 0
			if p != 1 {
				for i := range block {
					held := make(map[reldb.TupleID]bool)
					for _, k := range flatNB(block[i][p]).Keys {
						held[k] = true
					}
					for j := i + 1; j < len(block); j++ {
						for _, k := range flatNB(block[j][p]).Keys {
							if held[k] {
								want++
							}
						}
					}
				}
			}
			if got := x.Visits(p); got != want {
				t.Fatalf("trial %d path %d: Visits = %d, brute force %d", trial, p, got, want)
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
