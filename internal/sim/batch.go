package sim

import (
	"math"
	"math/bits"

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
// entry. The build reads every member's entries as segments
// (prop.SparseNeighborhood.AppendSegments) of its view along the path
// (prop.Neighborhoods.Path): a flat neighborhood is one, a
// grouped one a segment per stretch of a parent's children, read in place
// from the fan-out tail's CSR, so a grouped neighborhood is never copied
// out. Its segments come group by group, not in key order, so the build
// orders the block's distinct tuples once instead, through a bitmap over
// their range: pass 1 counts each tuple's holders in the scratch's dense
// tuple array and marks it in the bitmap; the bitmap scan numbers the
// tuples in ascending order and lays the postings out in that order; pass
// 2 fills them in ascending member order; and a last walk over the
// postings reads every member's runs off them in ascending key order. The
// dense array is reset by walking the distinct tuples, never the whole
// tuple space. Memory is O(Σ keys) per path and O(Σ over paths of Σ keys)
// per block.
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

	// Build buffers for the path being indexed. segs[segEnd[i-1]:segEnd[i]]
	// are member i's entries (prop.SparseNeighborhood.AppendSegments).
	segs   []prop.Segment
	segEnd []int
	// words marks the distinct tuples, all zero between builds. Per
	// distinct tuple, in ascending order: the tuple, to reset the dense
	// array afterwards, and its postings, [lo, hi) once filled, lo being
	// the fill cursor until then.
	words []uint64
	keys  []reldb.TupleID
	fill  []span
	// shared holds, in ascending tuple order, the end of each tuple's
	// postings for the tuples held twice or more; cur, per member, the next
	// run to fill.
	shared []int32
	cur    []int32
}

// Build indexes the block nbs (nbs[i].Path(p) is member i's neighborhood
// along path p) along every path p for which use(p) is true, or along every
// path when use is nil. s lends its dense tuple array and gets it back all
// -1. Rows of paths left out return no partners.
func (x *BlockIndex) Build(s *BatchScratch, nbs []*prop.Neighborhoods, use func(p int) bool) {
	np := 0
	if len(nbs) > 0 {
		np = nbs[0].NumPaths()
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

// index builds ps from the members' neighborhoods along path p. A
// member's runs must come in ascending key order, which its segments are
// not in once its groups interleave, so they are read off the postings,
// laid out in ascending tuple order, after filling (see # Layout).
func (x *BlockIndex) index(ps *Postings, s *BatchScratch, nbs []*prop.Neighborhoods, p int) {
	n := len(nbs)
	segs, segEnd, sums := x.segs[:0], grow(x.segEnd, n), grow(ps.sums, n)
	minKey, maxKey := reldb.TupleID(math.MaxInt32), reldb.TupleID(-1)
	for i, nb := range nbs {
		v := nb.Path(p)
		segs = v.AppendSegments(segs)
		segEnd[i], sums[i] = len(segs), v.SumFwd
	}
	for _, sg := range segs {
		// A segment is ascending.
		minKey, maxKey = min(minKey, sg.Keys[0]), max(maxKey, sg.Keys[len(sg.Keys)-1])
	}
	pos := s.tupleIndex(maxKey)
	// Pass 1: count every tuple's holders in its dense array entry, as
	// −1 − count, and mark the tuple in a bitmap over the key range.
	base := minKey &^ 63
	words := x.words[:0]
	if len(segs) > 0 {
		words = grow(x.words, int(maxKey-base)>>6+1)
	}
	for _, sg := range segs {
		for _, t := range sg.Keys {
			if pos[t] == -1 {
				d := t - base
				words[d>>6] |= 1 << (d & 63)
			}
			pos[t]--
		}
	}
	// Number the tuples in ascending order off the bitmap, clearing it, and
	// lay out postings in that order, only for tuples with two or more
	// holders.
	keys, fill, shared := x.keys[:0], x.fill[:0], x.shared[:0]
	var total int32
	for w, word := range words {
		if word == 0 {
			continue
		}
		words[w] = 0
		for ; word != 0; word &= word - 1 {
			t := base + reldb.TupleID(w<<6+bits.TrailingZeros64(word))
			c := -1 - pos[t]
			pos[t] = int32(len(keys))
			lo := total
			if c > 1 {
				total += c
				shared = append(shared, total)
			}
			keys, fill = append(keys, t), append(fill, span{lo, total})
		}
	}
	members, fbs := grow(ps.members, int(total)), grow(ps.fbs, int(total))
	off := grow(ps.off, n+1)
	visits := 0
	// Pass 2: fill in ascending member order, so every tuple's postings are
	// ascending, and count each member's runs: one per tuple it shares with
	// a later member.
	off[0] = 0
	lo := 0
	for i := range n {
		nr := off[i]
		for _, sg := range segs[lo:segEnd[i]] {
			for k, t := range sg.Keys {
				f := &fill[pos[t]]
				q := f.lo
				if q == f.hi {
					continue // held by this member alone
				}
				f.lo = q + 1
				fb := sg.Shared
				if sg.FBs != nil {
					fb = sg.FBs[k]
				}
				members[q], fbs[q] = int32(i), fb
				if hi := f.hi; q+1 < hi {
					nr++
					visits += int(hi - q - 1)
				}
			}
		}
		off[i+1] = nr
		lo = segEnd[i]
	}
	// Runs: walk the shared tuples' postings in ascending tuple order;
	// every posting but a tuple's last opens its member's run over the
	// postings after it, so each member's runs come out in ascending key
	// order.
	runs, cur := grow(ps.runs, int(off[n])), append(x.cur[:0], off[:n]...)
	var q int32
	for _, hi := range shared {
		for ; q+1 < hi; q++ {
			i := members[q]
			runs[cur[i]] = span{q + 1, hi}
			cur[i]++
		}
		q = hi
	}
	for _, t := range keys {
		pos[t] = -1
	}
	clear(segs) // a pooled index holds on to no neighborhood
	x.segs, x.segEnd, x.words, x.keys, x.fill, x.shared, x.cur = segs, segEnd, words, keys, fill, shared, cur
	ps.off, ps.runs, ps.members, ps.fbs, ps.sums, ps.visits = off, runs, members, fbs, sums, visits
}

// Visits returns how many (i < j, shared tuple) triples the rows of path p
// walk: the kernel's whole work, independent of the machine.
func (x *BlockIndex) Visits(p int) int { return x.paths[p].visits }

// Row computes the Trip of members i and j along path p for every member
// j > i that shares at least one tuple with member i along path p. It
// returns those partners, in first-hit order, with their results; every
// other later member's result is exactly zero. Both slices belong to s and stay valid
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
// cover every key up to maxKey. BlockIndex.index resets each entry it sets
// to -1 before returning.
func (s *BatchScratch) tupleIndex(maxKey reldb.TupleID) []int32 {
	s.growPos(int(maxKey) + 1)
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
