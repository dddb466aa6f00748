package prop

import (
	"math"
	"slices"

	"distinct/internal/reldb"
)

// This file is the grouped form of SparseNeighborhood: how a path that ends
// in a fan-out tail is stored, and how it is read back in the flat form's
// order.
//
// # Fan-out tails
//
// A hop is a fan-out tail when every target tuple has at most one in-edge
// (Rev[v] ≤ 1). In a schema of foreign keys that is every reverse step:
// from an attribute-value tuple to the tuples that carry the value, from a
// paper to its authorships. Each child of a tail is reached from exactly
// one parent over exactly one edge, so the engine's per-edge masses
// (compiled.go) give every child of parent t the same pair
//
//	Fwd = (F − Fx)/d0 + Fx/(d0 − 1)   (the second term only when Fx ≠ 0, d0 > 1)
//	Bwd = B / rev(v) = B
//
// except a child whose mirror edge carried mass back to t: the walk's own
// bounce origin gets Fwd ≤ 0 and is not a neighbor, and any other such
// child gets its own pair. One group record per parent with the shared
// pair, plus one exception record per child whose pair differs, therefore
// stores the neighborhood exactly; the children are the parent's CSR row,
// which the hop already holds.
//
// # Reading the grouped form
//
// A parent's children are its CSR row: ascending target ordinals, and so
// ascending TupleIDs (HopCSR.ColIDs). AppendSegments yields a grouped
// neighborhood's entries without copying them: per group, the stretches of
// its row between exceptions, sharing the group's FB, and the reached
// exceptions. Children of different parents interleave, so the segments
// are in key order only group by group. A reader that needs key order
// either merges them — Expander.Expand, a binary heap over the groups that
// emits a whole stretch of the smallest one at a time; propagation sums
// SumFwd over that merge — or orders the tuples itself, once for many
// neighborhoods, as sim.BlockIndex does. Either way it sees the flat
// form's keys and FBs bit for bit.

// isTail reports whether hop is a fan-out tail: no target tuple has two or
// more in-edges.
func isTail(hop *reldb.HopCSR) bool {
	for _, r := range hop.Rev {
		if r > 1 {
			return false
		}
	}
	return true
}

// Len returns the number of neighbor tuples: len(Keys) when flat, the
// children the groups reach when grouped.
func (nb *SparseNeighborhood) Len() int {
	if nb.Tail == nil {
		return len(nb.Keys)
	}
	n := 0
	present := false
	for i, k := range nb.Keys {
		reached := nb.FBs[i].Fwd > 0
		switch {
		case k >= 0:
			present = reached
			if present {
				n += int(nb.Tail.RowPtr[k+1] - nb.Tail.RowPtr[k])
			}
		case present && !reached:
			n--
		case !present && reached:
			n++
		}
	}
	return n
}

// Segment is a stretch of a neighborhood's neighbor tuples, in ascending
// key order: Keys with one FB each in FBs, or, when FBs is nil, all with
// the FB Shared.
type Segment struct {
	Keys   []reldb.TupleID
	FBs    []FB
	Shared FB
}

// AppendSegments appends nb's neighbor tuples to dst as segments and
// returns the extended slice. A flat neighborhood is one segment. A
// grouped one has a segment for each stretch of a group's children between
// its exceptions, sharing the group's FB, and one for each exception whose
// child is reached. Its segments come group by group, so they are not in
// key order across groups; Expander.Expand merges them. Nothing is copied:
// the segments point into nb and into its tail's CSR.
func (nb *SparseNeighborhood) AppendSegments(dst []Segment) []Segment {
	if nb.Tail == nil {
		if len(nb.Keys) > 0 {
			dst = append(dst, Segment{Keys: nb.Keys, FBs: nb.FBs})
		}
		return dst
	}
	hop := nb.Tail
	for i := 0; i < len(nb.Keys); {
		j := i + 1
		for j < len(nb.Keys) && nb.Keys[j] < 0 {
			j++
		}
		t := nb.Keys[i]
		row, fb := hop.ColIDs[hop.RowPtr[t]:hop.RowPtr[t+1]], nb.FBs[i]
		done := 0 // row[done:] is still to emit
		for e := i + 1; ; e++ {
			// The stretch of the row before exception e, then e's child.
			stop := len(row)
			if e < j {
				stop = int(^nb.Keys[e])
			}
			if fb.Fwd > 0 && stop > done {
				dst = append(dst, Segment{Keys: row[done:stop:stop], Shared: fb})
			}
			if e >= j {
				break
			}
			if nb.FBs[e].Fwd > 0 {
				dst = append(dst, Segment{Keys: row[stop : stop+1 : stop+1], FBs: nb.FBs[e : e+1 : e+1]})
			}
			done = stop + 1
		}
		i = j
	}
	return dst
}

// Expander reads neighborhoods back in ascending key order. The zero value
// is ready to use; an Expander reused across calls keeps its buffers. It
// is not safe for concurrent use.
type Expander struct {
	segs  []Segment
	heads []groupHead
}

// groupHead is one merge cursor: its unread segments are segs[seg:end],
// and the first of them is read up to pos.
type groupHead struct {
	seg, end, pos int
}

// Expand appends nb's neighbor tuples, in ascending key order, to keys and
// their FBs to fbs, and returns the extended slices: exactly the entries
// the flat form would hold, in its order. The segments of one group are
// in order already; those of several groups are merged, through a binary
// heap of the groups keyed by their next tuple.
func (x *Expander) Expand(nb *SparseNeighborhood, keys []reldb.TupleID, fbs []FB) ([]reldb.TupleID, []FB) {
	segs := nb.AppendSegments(x.segs[:0])
	x.segs = segs
	n := nb.Len()
	keys, fbs = slices.Grow(keys, n), slices.Grow(fbs, n)
	// One cursor per run of segments that ascend one after another: a
	// group's segments always do, and so do consecutive groups whose rows
	// do not interleave.
	h := x.heads[:0]
	for i := range segs {
		if i == 0 || segs[i].Keys[0] < segs[i-1].Keys[len(segs[i-1].Keys)-1] {
			if len(h) > 0 {
				h[len(h)-1].end = i
			}
			h = append(h, groupHead{seg: i})
		}
	}
	if len(h) > 0 {
		h[len(h)-1].end = len(segs)
	}
	head := func(g groupHead) reldb.TupleID { return segs[g.seg].Keys[g.pos] }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, head)
	}
	for len(h) > 0 {
		// Emit the smallest group up to the next group's head: a tail's
		// rows are disjoint, so no other group holds a tuple in between.
		limit := reldb.TupleID(math.MaxInt32)
		if len(h) > 1 {
			limit = head(h[1])
		}
		if len(h) > 2 {
			limit = min(limit, head(h[2]))
		}
		g := &h[0]
		for g.seg < g.end {
			sg := &segs[g.seg]
			k := g.pos
			for k < len(sg.Keys) && sg.Keys[k] < limit {
				k++
			}
			keys = append(keys, sg.Keys[g.pos:k]...)
			if sg.FBs != nil {
				fbs = append(fbs, sg.FBs[g.pos:k]...)
			} else {
				for range k - g.pos {
					fbs = append(fbs, sg.Shared)
				}
			}
			if k < len(sg.Keys) {
				g.pos = k
				break // the limit
			}
			g.seg, g.pos = g.seg+1, 0
		}
		if g.seg == g.end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			siftDown(h, 0, head)
		}
	}
	x.heads = h
	return keys, fbs
}

// siftDown restores the min-heap order of h under key below index i.
func siftDown(h []groupHead, i int, key func(groupHead) reldb.TupleID) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && key(h[l]) < key(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && key(h[r]) < key(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
