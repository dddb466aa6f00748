package sim

import (
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// This file is the package's similarity kernel: every pair of a block of
// neighborhoods, computed from an inverted index so that a pair only ever
// touches the neighbor tuples it shares. A single pair is scored as a
// two-member block (Extractor.Pair). The tests hold the kernel to the
// refKernel test oracle bit for bit.
//
// # Layout
//
// A BlockIndex holds one Postings per join path. Postings is a CSR from
// each neighbor tuple held by at least two block members to those members,
// in ascending member order, each entry carrying the member's FB for the
// tuple. Tuples held by a single member cannot contribute to any pair and
// are left out. For every key a member shares with a later member, the
// index also records the run of postings strictly after the member's own
// entry. The build is two passes over the block's keys through the
// scratch's dense tuple → slot array, which is reset by walking the
// distinct keys, never the whole tuple space. Memory is O(Σ keys) per path
// and O(Σ over paths of Σ keys) per block.
//
// Row i walks its runs in ascending key order and accumulates each hit into
// a dense per-row accumulator indexed by the partner j > i. A row therefore
// costs the (key, j) pairs it shares, not Σ_j |keys_j| as probing every
// candidate does. The index is read-only once built, so rows run
// concurrently, each with its own BatchScratch.
//
// # Determinism
//
// For a fixed pair (i, j), row i reaches the shared tuples in ascending key
// order and always takes i as the first operand, so a pair's sums do not
// depend on the block it is scored in, the row order or the worker count.
// The resemblance denominator reads the SumFwd totals stored with the
// neighborhoods. Pairs that share nothing are never touched; their result
// is exactly zero.

// Trip is the fused per-pair kernel result: the set resemblance and both
// directed walk probabilities.
//
//   - Resem is the set resemblance (Definition 2), the weighted Jaccard
//     coefficient Σ min(Fwd_a(t), Fwd_b(t)) / Σ max(Fwd_a(t), Fwd_b(t)) over
//     the intersection and union of the two neighborhoods. Σ max over the
//     union = SumFwd_a + SumFwd_b − Σ min over the intersection.
//   - WalkAB and WalkBA are the directed random walk probabilities
//     Walk_P(a → b) = Σ_t Fwd_a(t)·Bwd_b(t) and its reverse: walking the
//     join path to a shared neighbor tuple and the reversed path back
//     (Section 2.4). The symmetrised walk feature is their mean.
type Trip struct {
	Resem  float64
	WalkAB float64 // row member → partner
	WalkBA float64 // partner → row member
}

// span is the half-open run [lo, hi) of a tuple's postings that follow one
// member's own entry; that entry sits at lo-1.
type span struct{ lo, hi int32 }

// Postings is the inverted index of one block along one join path.
type Postings struct {
	off     []int32   // member i's runs are runs[off[i]:off[i+1]]; empty when not built
	runs    []span    // per key a member shares with a later member
	members []int32   // postings: block member, ascending within a tuple
	fbs     []prop.FB // postings: that member's FB for the tuple
	sums    []float64 // per member: SumFwd
	visits  int       // Σ over runs of hi-lo
}

// BlockIndex is the per-path inverted index of one block of neighborhoods.
// Borrow one with Extractor.IndexBlock and return it with PutBlockIndex;
// pooled indexes keep their buffers, so a warm build does not allocate.
type BlockIndex struct {
	paths []Postings

	// Build buffers, per distinct tuple of the path being indexed.
	keys []reldb.TupleID // the tuples, to reset the dense array afterwards
	next []int32         // holder count, then the fill cursor
	end  []int32         // end of the tuple's postings
}

// Build indexes the block nbs (nbs[i][p] is member i's neighborhood along
// path p) along every path p for which use(p) is true, or along every path
// when use is nil. s lends its dense tuple array and gets it back all -1.
// Rows of paths left out return no partners.
func (x *BlockIndex) Build(s *BatchScratch, nbs [][]prop.SparseNeighborhood, use func(p int) bool) {
	np := 0
	if len(nbs) > 0 {
		np = len(nbs[0])
	}
	if cap(x.paths) < np {
		x.paths = append(x.paths[:cap(x.paths)], make([]Postings, np-cap(x.paths))...)
	}
	x.paths = x.paths[:np]
	for p := range x.paths {
		ps := &x.paths[p]
		ps.off, ps.runs, ps.visits = ps.off[:0], ps.runs[:0], 0
		if use == nil || use(p) {
			x.index(ps, s, nbs, p)
		}
	}
}

// index builds ps from the members' neighborhoods along path p.
func (x *BlockIndex) index(ps *Postings, s *BatchScratch, nbs [][]prop.SparseNeighborhood, p int) {
	pos := s.tupleIndex(nbs, p)
	// Pass 1: number the distinct tuples in first-seen order and count
	// their holders.
	keys, next := x.keys[:0], x.next[:0]
	for i := range nbs {
		for _, t := range nbs[i][p].Keys {
			slot := pos[t]
			if slot < 0 {
				slot = int32(len(keys))
				pos[t] = slot
				keys = append(keys, t)
				next = append(next, 0)
			}
			next[slot]++
		}
	}
	// Lay out postings only for tuples with two or more holders; next
	// becomes each tuple's fill cursor, end its end.
	end := grow(x.end, len(keys))
	var total int32
	for slot, c := range next {
		next[slot] = total
		if c > 1 {
			total += c
		}
		end[slot] = total
	}
	n := len(nbs)
	members, fbs := grow(ps.members, int(total)), grow(ps.fbs, int(total))
	off, sums, runs := grow(ps.off, n+1), grow(ps.sums, n), ps.runs
	visits := 0
	// Pass 2: fill in ascending member order, so every tuple's postings are
	// ascending and a member's run holds exactly its later partners.
	for i := range nbs {
		nb := &nbs[i][p]
		off[i] = int32(len(runs))
		sums[i] = nb.SumFwd
		for k, t := range nb.Keys {
			slot := pos[t]
			q := next[slot]
			if q == end[slot] {
				continue // held by this member alone
			}
			next[slot] = q + 1
			members[q], fbs[q] = int32(i), nb.FBs[k]
			if hi := end[slot]; q+1 < hi {
				runs = append(runs, span{q + 1, hi})
				visits += int(hi - q - 1)
			}
		}
	}
	off[n] = int32(len(runs))
	for _, t := range keys {
		pos[t] = -1
	}
	x.keys, x.next, x.end = keys, next, end
	ps.off, ps.runs, ps.members, ps.fbs, ps.sums, ps.visits = off, runs, members, fbs, sums, visits
}

// Visits returns how many (i < j, shared tuple) triples the rows of path p
// walk: the kernel's whole work, independent of the machine.
func (x *BlockIndex) Visits(p int) int { return x.paths[p].visits }

// Row computes the Trip of (nbs[i][p], nbs[j][p]) for every member j > i
// that shares at least one tuple with member i along path p. It returns those
// partners, in first-hit order, with their results; every other later
// member's result is exactly zero. Both slices belong to s and stay valid
// until its next Row. Rows of one index may run concurrently, each with its
// own scratch.
func (x *BlockIndex) Row(s *BatchScratch, p, i int) (js []int32, out []Trip) {
	ps := &x.paths[p]
	if len(ps.off) == 0 {
		return nil, nil
	}
	runs := ps.runs[ps.off[i]:ps.off[i+1]]
	if len(runs) == 0 {
		return nil, nil
	}
	acc := s.accums(len(ps.sums))
	js = s.js[:0]
	members, fbs := ps.members, ps.fbs
	for _, r := range runs {
		fa := fbs[r.lo-1]
		for q := r.lo; q < r.hi; q++ {
			j, fb := members[q], fbs[q]
			a := &acc[j]
			if !a.hit {
				a.hit = true
				js = append(js, j)
			}
			// Plain comparison instead of math.Min: Fwd masses are finite
			// and non-negative, so the results are identical and the call
			// stays off the hottest loop.
			if fa.Fwd < fb.Fwd {
				a.interMin += fa.Fwd
			} else {
				a.interMin += fb.Fwd
			}
			a.ab += fa.Fwd * fb.Bwd
			a.ba += fb.Fwd * fa.Bwd
		}
	}
	out = grow(s.out, len(js))
	sumI := ps.sums[i]
	for k, j := range js {
		a := &acc[j]
		var resem float64
		if denom := sumI + ps.sums[j] - a.interMin; denom > 0 {
			resem = a.interMin / denom
		}
		out[k] = Trip{Resem: resem, WalkAB: a.ab, WalkBA: a.ba}
		*a = accum{}
	}
	s.js, s.out = js, out
	return js, out
}

// accum is one partner's running sums within a row.
type accum struct {
	interMin, ab, ba float64
	hit              bool
}

// BatchScratch is the block kernel's per-goroutine working memory: a dense
// array over the tuple space and one row's accumulators. Reusing it (via
// Extractor.BatchScratch / PutBatchScratch) is what makes the warm path
// allocation-free. The zero value is usable.
type BatchScratch struct {
	// pos maps a tuple ID to a caller-chosen int32, -1 when unset.
	// Invariant between uses: all -1.
	pos []int32

	acc []accum // per partner; all zero between rows
	js  []int32
	out []Trip
}

// NewBatchScratch returns a scratch whose dense array covers tuple IDs
// [0, keySpace). The array grows if it ever meets a larger key, so keySpace
// is a sizing hint (db.NumTuples()), not a hard bound.
func NewBatchScratch(keySpace int) *BatchScratch {
	s := &BatchScratch{}
	s.growPos(keySpace)
	return s
}

// tupleIndex returns the scratch's dense tuple array, all -1 and grown to
// cover every key of nbs[i][p] over the members i. BlockIndex.index resets
// each entry it sets to -1 before returning.
func (s *BatchScratch) tupleIndex(nbs [][]prop.SparseNeighborhood, p int) []int32 {
	maxKey := -1
	for i := range nbs {
		// Keys are sorted, so each neighborhood's maximum is its last key.
		if k := nbs[i][p].Keys; len(k) > 0 && int(k[len(k)-1]) > maxKey {
			maxKey = int(k[len(k)-1])
		}
	}
	s.growPos(maxKey + 1)
	return s.pos
}

// growPos extends pos to cover [0, keySpace), filling new entries with -1.
func (s *BatchScratch) growPos(keySpace int) {
	old := len(s.pos)
	if keySpace <= old {
		return
	}
	s.pos = append(s.pos, make([]int32, keySpace-old)...)
	for i := old; i < len(s.pos); i++ {
		s.pos[i] = -1
	}
}

// accums returns the row accumulators covering partners [0, n), all zero.
func (s *BatchScratch) accums(n int) []accum {
	if len(s.acc) < n {
		s.acc = append(s.acc, make([]accum, n-len(s.acc))...)
	}
	return s.acc
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
