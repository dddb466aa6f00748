package prop

import "distinct/internal/reldb"

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
// ascending TupleIDs (HopCSR.ColIDs). AppendSegments is the one reader of
// the records, as emitGroups is their one writer: it yields a grouped
// neighborhood's entries without copying them, per group the stretches of
// its row between exceptions, sharing the group's FB, and the reached
// exceptions. Children of different parents interleave, so the segments
// are in key order only group by group. A reader that needs key order
// orders the tuples itself, through a bitmap over their key range: one
// window at a time when propagation sums SumFwd (Scratch.sumFwd), once
// for a whole block of neighborhoods in sim.BlockIndex. Either way it
// sees the flat form's keys and FBs bit for bit.

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
// key order across groups. Nothing is copied: the segments point into nb
// and into its tail's CSR.
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
