package sim

import (
	"math"
	"math/bits"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// This file is the package's similarity kernel: every pair of a block of
// neighborhoods, computed from an inverted index so that a pair only ever
// touches the posting keys it shares. A single pair is scored as a
// two-member block (Extractor.Pair).
//
// # Layout
//
// A BlockIndex holds one Postings per join path. Postings is a CSR from
// each posting key held by at least two block members to those members, in
// ascending member order. Along a flat path a key is a neighbor tuple and
// its posting carries the member's FB for it. Along a grouped path (one
// that ends in a fan-out tail, prop.SparseNeighborhood) a key is a parent,
// a source ordinal of the tail, and its posting carries the member's group
// FB and its run of exception records for that parent: the parent's
// children themselves are never expanded. A flat path is thus the grouped
// one with groups of one child and no exceptions. Whether a path is
// grouped is a property of the path (the plan's per-path descriptor), so
// every member of a block reads it the same way. Keys held by a single
// member cannot contribute to any pair and are left out. For every key a
// member shares with a later member, the index also records the run of
// postings strictly after the member's own entry, with the key's child
// count (1 for a flat tuple).
//
// The build reads every member's records along the path straight from its
// view (prop.Neighborhoods.Path). A member's group records come in
// frontier order, not key order, so the build orders the block's distinct
// keys once, through a bitmap over their range: pass 1 counts each key's
// holders in the scratch's dense array and marks the key in the bitmap;
// the bitmap scan numbers the keys in ascending order and lays the
// postings out in that order; pass 2 fills them in ascending member order,
// copying each posting's exceptions; and a last walk over the postings
// reads every member's runs off them in ascending key order. The dense
// array is reset by walking the distinct keys, never the whole key space.
// Memory is O(Σ records) per path and O(Σ over paths of Σ records) per
// block.
//
// Row i walks its runs in ascending key order and accumulates each hit into
// a dense per-row accumulator indexed by the partner j > i. A shared key
// adds, for the children both members reach outside the union of their
// exceptions, shared·min(fa, fb) to the resemblance numerator and
// shared·fa.Fwd·fb.Bwd and shared·fb.Fwd·fa.Bwd to the two walks, fa and fb
// being the two group FBs; then each union exception's own terms, in row
// position order, each side reading its exception's FB or else its group
// FB. A child counts only where both members reach it (Fwd > 0). A row
// therefore costs the (key, j) pairs it shares, not the children under
// them, and not Σ_j |keys_j| as probing every candidate does. The index is
// read-only once built, so rows run concurrently, each with its own
// BatchScratch.
//
// # Determinism
//
// For a fixed pair (i, j), row i reaches the shared keys in ascending
// parent or tuple key order, adds each key's group term before that key's
// exception terms, and always takes i as the first operand, so a pair's
// sums do not depend on the block it is scored in, the row order or the
// worker count. The resemblance denominator reads the SumFwd totals stored
// with the neighborhoods. Pairs that reach no common child are never
// partners; their result is exactly zero.
//
// Along a flat path every term is multiplied by a child count of 1, which
// is exact, so the sums are the per-tuple sums in key order that
// oracle.RefKernel computes, bit for bit. Along a grouped path the k equal
// terms of a group's shared children are one product k·x instead of k
// additions in child key order, so the sums agree with the oracle's to
// rounding (the tests hold them to 1e-12, relative).

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

// span is a half-open range [lo, hi) of a path's postings or exception
// records.
type span struct{ lo, hi int32 }

// run is the half-open range [lo, hi) of a key's postings that follow one
// member's own entry, which sits at lo-1, and the key's child count: the
// parent's degree in the tail along a grouped path, 1 along a flat one.
type run struct{ lo, hi, deg int32 }

// Postings is the inverted index of one block along one join path.
type Postings struct {
	off     []int32   // member i's runs are runs[off[i]:off[i+1]]; empty when not built
	runs    []run     // per key a member shares with a later member
	members []int32   // postings: block member, ascending within a key
	fbs     []prop.FB // postings: that member's FB for the key (its group FB)
	excs    []span    // postings: that member's exceptions, xpos and xfbs[lo:hi]
	xpos    []int32   // exceptions: the child's position in the parent's row, ascending per posting
	xfbs    []prop.FB // exceptions: the child's own FB, Fwd 0 when not reached
	sums    []float64 // per member: SumFwd
	visits  int       // Σ over runs of hi-lo
}

// BlockIndex is the per-path inverted index of one block of neighborhoods.
// Borrow one with Extractor.IndexBlock and return it with PutBlockIndex;
// pooled indexes keep their buffers, so a warm build does not allocate.
type BlockIndex struct {
	paths []Postings

	// Build buffers for the path being indexed. views[i] is member i's
	// neighborhood. words marks the distinct keys, all zero between
	// builds. Per distinct key, in ascending order: the key, to reset the
	// dense array afterwards, and its postings, [lo, hi) once filled, lo
	// being the fill cursor until then.
	views []prop.SparseNeighborhood
	words []uint64
	keys  []reldb.TupleID
	fill  []span
	// shared holds, in ascending key order, the postings and child count
	// of each key held twice or more; cur, per member, the next run to
	// fill.
	shared []run
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
		ps.off, ps.runs, ps.members, ps.visits = ps.off[:0], ps.runs[:0], ps.members[:0], 0
		if use == nil || use(p) {
			x.index(ps, s, nbs, p)
		}
	}
}

// index builds ps from the members' neighborhoods along path p (see
// # Layout). A member's runs must come in ascending key order, which its
// records are not in, so they are read off the postings, laid out in
// ascending key order, after filling.
func (x *BlockIndex) index(ps *Postings, s *BatchScratch, nbs []*prop.Neighborhoods, p int) {
	n := len(nbs)
	views, sums := grow(x.views, n), grow(ps.sums, n)
	var tail *reldb.HopCSR
	minKey, maxKey := reldb.TupleID(math.MaxInt32), reldb.TupleID(-1)
	for i, nb := range nbs {
		v := nb.Path(p)
		views[i], sums[i] = v, v.SumFwd
		if len(v.Keys) == 0 {
			continue
		}
		if maxKey < 0 { // the first member holding anything
			tail = v.Tail
		} else if v.Tail != tail {
			panic("sim: block members disagree on whether a path is grouped")
		}
		for _, t := range v.Keys {
			if t >= 0 { // a flat tuple or a group's parent; exceptions are < 0
				minKey, maxKey = min(minKey, t), max(maxKey, t)
			}
		}
	}
	pos := s.tupleIndex(maxKey)
	// Pass 1: count every key's holders in its dense array entry, as
	// −1 − count, and mark the key in a bitmap over the key range.
	base := minKey &^ 63
	words := x.words[:0]
	if maxKey >= 0 {
		words = grow(x.words, int(maxKey-base)>>6+1)
	}
	for _, v := range views {
		for _, t := range v.Keys {
			if t < 0 {
				continue
			}
			if pos[t] == -1 {
				d := t - base
				words[d>>6] |= 1 << (d & 63)
			}
			pos[t]--
		}
	}
	// Number the keys in ascending order off the bitmap, clearing it, and
	// lay out postings in that order, only for keys with two or more
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
				deg := int32(1)
				if tail != nil {
					deg = tail.RowPtr[t+1] - tail.RowPtr[t]
				}
				shared = append(shared, run{lo, total, deg})
			}
			keys, fill = append(keys, t), append(fill, span{lo, total})
		}
	}
	members, fbs, excs := grow(ps.members, int(total)), grow(ps.fbs, int(total)), grow(ps.excs, int(total))
	xpos, xfbs := ps.xpos[:0], ps.xfbs[:0]
	off := grow(ps.off, n+1)
	visits := 0
	// Pass 2: fill in ascending member order, so every key's postings are
	// ascending, copy each posting's exceptions, and count each member's
	// runs: one per key it shares with a later member.
	off[0] = 0
	for i, v := range views {
		nr := off[i]
		for k := 0; k < len(v.Keys); k++ {
			t := v.Keys[k]
			if t < 0 {
				continue // an exception, copied with its group
			}
			e := k + 1
			for e < len(v.Keys) && v.Keys[e] < 0 {
				e++
			}
			f := &fill[pos[t]]
			q := f.lo
			if q == f.hi {
				continue // held by this member alone
			}
			f.lo = q + 1
			members[q], fbs[q] = int32(i), v.FBs[k]
			xlo := int32(len(xpos))
			for _, g := range v.Keys[k+1 : e] {
				xpos = append(xpos, int32(^g))
			}
			xfbs = append(xfbs, v.FBs[k+1:e]...)
			excs[q] = span{xlo, int32(len(xpos))}
			if hi := f.hi; q+1 < hi {
				nr++
				visits += int(hi - q - 1)
			}
		}
		off[i+1] = nr
	}
	// Runs: walk the shared keys' postings in ascending key order; every
	// posting but a key's last opens its member's run over the postings
	// after it, so each member's runs come out in ascending key order.
	runs, cur := grow(ps.runs, int(off[n])), append(x.cur[:0], off[:n]...)
	for _, r := range shared {
		for q := r.lo; q+1 < r.hi; q++ {
			i := members[q]
			runs[cur[i]] = run{q + 1, r.hi, r.deg}
			cur[i]++
		}
	}
	for _, t := range keys {
		pos[t] = -1
	}
	clear(views) // a pooled index holds on to no neighborhood
	x.views, x.words, x.keys, x.fill, x.shared, x.cur = views, words, keys, fill, shared, cur
	ps.off, ps.runs, ps.members, ps.fbs, ps.excs, ps.xpos, ps.xfbs = off, runs, members, fbs, excs, xpos, xfbs
	ps.sums, ps.visits = sums, visits
}

// Visits returns how many (i < j, shared posting key) triples the rows of
// path p walk: the kernel's whole work, independent of the machine. A key
// is a parent along a grouped path and a tuple along a flat one.
func (x *BlockIndex) Visits(p int) int { return x.paths[p].visits }

// NumPostings returns how many postings the index laid out along path p:
// one per member for every key two or more members hold, the index's size,
// independent of the machine.
func (x *BlockIndex) NumPostings(p int) int { return len(x.paths[p].members) }

// Row computes the Trip of members i and j along path p for every member
// j > i that reaches at least one child (a tuple, along a flat path) that
// member i reaches along path p. It returns those partners, in first-hit
// order, with their results; every other later member's result is exactly
// zero. Both slices belong to s and stay valid until its next Row. Rows of
// one index may run concurrently, each with its own scratch.
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
	members, fbs, excs := ps.members, ps.fbs, ps.excs
	for _, r := range runs {
		fa, ea := fbs[r.lo-1], excs[r.lo-1]
		for q := r.lo; q < r.hi; q++ {
			j, fb, eb := members[q], fbs[q], excs[q]
			a := &acc[j]
			var hit bool
			if ea.lo == ea.hi && eb.lo == eb.hi {
				// Every child of the key is shared, with the group FBs.
				if hit = fa.Fwd > 0 && fb.Fwd > 0; hit {
					a.add(float64(r.deg), fa, fb)
				}
			} else {
				hit = a.addExcepted(r.deg, fa, fb,
					ps.xpos[ea.lo:ea.hi], ps.xfbs[ea.lo:ea.hi], ps.xpos[eb.lo:eb.hi], ps.xfbs[eb.lo:eb.hi])
			}
			if hit && !a.hit {
				a.hit = true
				js = append(js, j)
			}
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

// add adds k shared children whose FBs are fa (row member) and fb
// (partner). With k = 1 every product is exact, so one child adds exactly
// the oracle's per-tuple terms.
func (a *accum) add(k float64, fa, fb prop.FB) {
	// Plain comparison instead of math.Min: Fwd masses are finite and
	// non-negative, so the results are identical and the call stays off
	// the hottest loop.
	m := fb.Fwd
	if fa.Fwd < fb.Fwd {
		m = fa.Fwd
	}
	a.interMin += k * m
	a.ab += k * (fa.Fwd * fb.Bwd)
	a.ba += k * (fb.Fwd * fa.Bwd)
}

// addExcepted adds a shared parent of deg children whose group FBs are fa
// and fb and whose exceptions are (pa, xa) and (pb, xb), positions
// ascending: first the children outside the union of the exceptions, as
// one group term, then each union exception in position order. A child
// counts only where both sides reach it. It reports whether any child
// counted.
func (a *accum) addExcepted(deg int32, fa, fb prop.FB, pa []int32, xa []prop.FB, pb []int32, xb []prop.FB) bool {
	union := int32(0)
	for i, j := 0, 0; i < len(pa) || j < len(pb); union++ {
		switch {
		case j == len(pb) || i < len(pa) && pa[i] < pb[j]:
			i++
		case i == len(pa) || pb[j] < pa[i]:
			j++
		default:
			i, j = i+1, j+1
		}
	}
	hit := false
	if fa.Fwd > 0 && fb.Fwd > 0 && deg > union {
		a.add(float64(deg-union), fa, fb)
		hit = true
	}
	for i, j := 0, 0; i < len(pa) || j < len(pb); {
		ga, gb := fa, fb
		switch {
		case j == len(pb) || i < len(pa) && pa[i] < pb[j]:
			ga, i = xa[i], i+1
		case i == len(pa) || pb[j] < pa[i]:
			gb, j = xb[j], j+1
		default:
			ga, gb, i, j = xa[i], xb[j], i+1, j+1
		}
		if ga.Fwd > 0 && gb.Fwd > 0 {
			a.add(1, ga, gb)
			hit = true
		}
	}
	return hit
}

// BatchScratch is the block kernel's per-goroutine working memory: a dense
// array over the tuple space and one row's accumulators. Reusing it (via
// Extractor.BatchScratch / PutBatchScratch) is what makes the warm path
// allocation-free. The zero value is usable.
type BatchScratch struct {
	// pos maps a posting key (a tuple ID, or a parent's ordinal in a
	// fan-out tail) to a caller-chosen int32, -1 when unset.
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
