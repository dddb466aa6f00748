package prop

import (
	"math"
	"sort"

	"distinct/internal/reldb"
)

// SparseNeighborhood is the immutable, read-optimised form of a
// Neighborhood: a sorted sparse vector. Keys holds the neighbor tuple IDs
// in strictly ascending order, FBs the matching probabilities (FBs[i]
// belongs to Keys[i]), and SumFwd the precomputed Σ Fwd over all entries.
//
// The map form (Neighborhood) is what propagation accumulates into — the
// traversal needs random-access upserts. Once a neighborhood is final it is
// only ever read, and every hot read is an intersection with another
// neighborhood: sorted parallel slices make that a linear merge-scan with
// no hashing, no pointer chasing, and a cache-friendly access pattern.
// Precomputing SumFwd at build time makes the Jaccard denominator of
// sim.Resemblance an O(1) lookup instead of a rescan of both operands.
//
// SumFwd is accumulated in ascending key order, so it — like every kernel
// built on the sorted form — is deterministic across runs, unlike sums
// taken in Go map iteration order.
type SparseNeighborhood struct {
	Keys   []reldb.TupleID
	FBs    []FB
	SumFwd float64
}

// Sparse converts the map form into its sorted sparse-vector form.
func (n Neighborhood) Sparse() SparseNeighborhood {
	if len(n) == 0 {
		return SparseNeighborhood{}
	}
	keys := make([]reldb.TupleID, 0, len(n))
	for t := range n {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fbs := make([]FB, len(keys))
	var sum float64
	for i, t := range keys {
		fbs[i] = n[t]
		sum += fbs[i].Fwd
	}
	return SparseNeighborhood{Keys: keys, FBs: fbs, SumFwd: sum}
}

// Len returns the number of neighbor tuples.
func (s SparseNeighborhood) Len() int { return len(s.Keys) }

// Lookup returns the probabilities of one neighbor tuple by binary search.
func (s SparseNeighborhood) Lookup(t reldb.TupleID) (FB, bool) {
	i := sort.Search(len(s.Keys), func(i int) bool { return s.Keys[i] >= t })
	if i < len(s.Keys) && s.Keys[i] == t {
		return s.FBs[i], true
	}
	return FB{}, false
}

// TotalFwd returns the total forward probability mass, precomputed at
// build time (see Neighborhood.TotalFwd).
func (s SparseNeighborhood) TotalFwd() float64 { return s.SumFwd }

// MaxBwd returns the largest backward probability in the neighborhood.
func (s SparseNeighborhood) MaxBwd() float64 {
	m := 0.0
	for _, fb := range s.FBs {
		m = math.Max(m, fb.Bwd)
	}
	return m
}

// Map converts back to the map form; mostly useful in tests.
func (s SparseNeighborhood) Map() Neighborhood {
	if s.Keys == nil {
		return nil
	}
	n := make(Neighborhood, len(s.Keys))
	for i, t := range s.Keys {
		n[t] = s.FBs[i]
	}
	return n
}

// PropagateMultiSparse is PropagateMulti with each per-path result
// finalised into the sparse form.
func PropagateMultiSparse(db *reldb.Database, start reldb.TupleID, t *Trie) []SparseNeighborhood {
	nbs := PropagateMulti(db, start, t)
	out := make([]SparseNeighborhood, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Sparse()
	}
	return out
}
