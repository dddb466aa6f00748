package reldb

import "sort"

// HopCSR is the compiled form of one join-path step departing from one
// relation: the step's tuple-level edges laid out in compressed sparse row
// format over dense per-relation ordinals. Ordinal i of a relation is its
// i-th tuple in insertion order, which — because TupleIDs grow globally —
// is also ascending TupleID order; converting a frontier of ordinals back
// to sorted TupleIDs is therefore a monotone map through ToIDs.
//
// For source ordinal t the out-edges are Col[RowPtr[t]:RowPtr[t+1]], each
// entry a target ordinal; within a row the targets are strictly ascending.
// Rev[v] is the in-degree of target ordinal v — exactly the reverse fanout
// JoinFanout(toTuple, step.Inverse()) that backward propagation divides by,
// for forward and reverse steps alike. ColIDs[g] is ToIDs[Col[g]], the
// edge's target as a tuple: ascending within a row too, so a row's targets
// read as TupleIDs without a lookup per edge.
//
// A HopCSR is immutable after CompileHop returns and is shared read-only
// across all references and worker goroutines.
type HopCSR struct {
	FromRel string // relation the step departs from
	ToRel   string // relation the step arrives in
	Step    Step

	RowPtr  []int32   // len NumFrom+1; edge range per source ordinal
	Col     []int32   // target ordinals, ascending within each row
	ColIDs  []TupleID // per edge: the target's TupleID, ToIDs[Col[g]]
	Rev     []int32   // len NumTo; in-degree per target ordinal
	FromIDs []TupleID // source relation's tuples in ordinal order
	ToIDs   []TupleID // target relation's tuples in ordinal order

	NumFrom, NumTo int
}

// NumEdges returns the number of tuple-level edges in the hop.
func (h *HopCSR) NumEdges() int { return len(h.Col) }

// FromOrdinal returns the source ordinal of tuple id as the hop captured
// it at compile time, or -1 if id was not a tuple of the source relation
// then (a later Insert, or another relation's tuple).
func (h *HopCSR) FromOrdinal(id TupleID) int { return ordinalIn(h.FromIDs, id) }

// OrdinalOf returns the position of id in the relation's insertion order,
// or -1 if the tuple does not belong to this relation.
func (r *Relation) OrdinalOf(id TupleID) int { return ordinalIn(r.tupleIDs, id) }

// ordinalIn returns the index of id in ids, or -1. TupleIDs are handed out
// in globally increasing order, so a relation's ids are sorted and the
// lookup is a binary search.
func ordinalIn(ids []TupleID, id TupleID) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return i
	}
	return -1
}

// CompileHop builds the CSR edge index of one step departing from relation
// `from`. It is a pure function of the database contents: malformed steps
// (unknown relations or attributes, or a step that does not depart from
// `from`) compile to an edge-free hop, mirroring the empty result Joinable
// returns for them. The edges are exactly Joinable's with no exclusion;
// the propagation engine reapplies the no-backtrack rule itself.
func CompileHop(db *Database, from string, step Step) *HopCSR {
	h := &HopCSR{FromRel: from, ToRel: step.To(db.Schema), Step: step}
	src := db.Relation(from)
	if src == nil {
		h.RowPtr = []int32{0}
		return h
	}
	h.NumFrom = src.Size()
	h.FromIDs = src.TupleIDs()
	h.RowPtr = make([]int32, h.NumFrom+1)
	dst := db.Relation(h.ToRel)
	if dst == nil || step.From(db.Schema) != from {
		return h
	}
	h.NumTo = dst.Size()
	h.ToIDs = dst.TupleIDs()

	if step.Forward {
		// Each source tuple references at most one target through its FK.
		ai := src.Schema.AttrIndex(step.Attr)
		if ai < 0 {
			return h
		}
		cols := make([]int32, 0, h.NumFrom)
		for i, id := range src.tupleIDs {
			if target := db.LookupKey(h.ToRel, db.tuples[id].Vals[ai]); target != InvalidTuple {
				cols = append(cols, int32(dst.OrdinalOf(target)))
			}
			h.RowPtr[i+1] = int32(len(cols))
		}
		h.Col = cols
	} else {
		// Reverse: every tuple of step.Rel referencing the source's key.
		// Referencing lists are in insertion order, i.e. ascending TupleID,
		// so each row's target ordinals come out ascending for free.
		ki := src.Schema.KeyIndex()
		if ki < 0 {
			return h
		}
		cols := make([]int32, 0, h.NumTo)
		for i, id := range src.tupleIDs {
			for _, rid := range db.Referencing(step.Rel, step.Attr, db.tuples[id].Vals[ki]) {
				cols = append(cols, int32(dst.OrdinalOf(rid)))
			}
			h.RowPtr[i+1] = int32(len(cols))
		}
		h.Col = cols
	}

	h.Rev = make([]int32, h.NumTo)
	h.ColIDs = make([]TupleID, len(h.Col))
	for g, v := range h.Col {
		h.Rev[v]++
		h.ColIDs[g] = h.ToIDs[v]
	}
	return h
}

// BackRefs pairs each edge of child with its mirror edge in parent: for
// child edge g = (t → v), the result holds the index of parent's edge
// (v → t), or -1 when parent has no such edge. The propagation engine uses
// the pairing to subtract, per target, exactly the mass that arrived over
// the mirror edge — the tuple-level no-backtrack rule — without revisiting
// individual path instances.
//
// The pairing only exists when child steps back into the relation parent
// departed from (child.ToRel == parent.FromRel, the bounce shape) while
// chaining after it (child.FromRel == parent.ToRel); otherwise, and when no
// edge has a mirror, BackRefs returns nil and the engine skips the
// exclusion arithmetic entirely.
func BackRefs(parent, child *HopCSR) []int32 {
	if parent == nil || child.FromRel != parent.ToRel || child.ToRel != parent.FromRel ||
		parent.NumEdges() == 0 || child.NumEdges() == 0 {
		return nil
	}
	br := make([]int32, len(child.Col))
	any := false
	for t := 0; t < child.NumFrom; t++ {
		for g := child.RowPtr[t]; g < child.RowPtr[t+1]; g++ {
			v := child.Col[g]
			// Binary search t among parent's out-edges of v (ascending).
			lo, hi := parent.RowPtr[v], parent.RowPtr[v+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if parent.Col[mid] < int32(t) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < parent.RowPtr[v+1] && parent.Col[lo] == int32(t) {
				br[g] = lo
				any = true
			} else {
				br[g] = -1
			}
		}
	}
	if !any {
		return nil
	}
	return br
}
