// Package oracle holds the similarity kernel's test oracle: the three
// per-pair quantities of DISTINCT's two measures computed the naive way,
// over the flat form of two neighborhoods. It lives in a package of its
// own so that the tests of every layer that consumes the kernel — sim's
// property and fuzz tests, core's end-to-end oracle — can hold the engine
// to the same reference.
//
// Only _test.go files may import this package; scripts/check.sh fails when
// any other file does. Nothing in it is tuned for speed.
package oracle

import (
	"cmp"
	"math"
	"slices"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// FlatNB returns nb in flat form: a grouped neighborhood's segments
// (prop.SparseNeighborhood.AppendSegments) sorted into key order, with
// nb's own SumFwd; a flat one as it is.
func FlatNB(nb prop.SparseNeighborhood) prop.SparseNeighborhood {
	if nb.Tail == nil {
		return nb
	}
	type entry struct {
		key reldb.TupleID
		fb  prop.FB
	}
	var entries []entry
	for _, sg := range nb.AppendSegments(nil) {
		for k, t := range sg.Keys {
			fb := sg.Shared
			if sg.FBs != nil {
				fb = sg.FBs[k]
			}
			entries = append(entries, entry{t, fb})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	flat := prop.SparseNeighborhood{SumFwd: nb.SumFwd}
	for _, e := range entries {
		flat.Keys, flat.FBs = append(flat.Keys, e.key), append(flat.FBs, e.fb)
	}
	return flat
}

// RefKernel is the similarity oracle: a pair's set resemblance and both
// directed walk probabilities computed over the operands' flat forms — b's
// entries loaded into a hash map, every key of a probed in it, both Fwd
// totals summed afresh rather than read from SumFwd, and the Jaccard
// denominator taken as Σ max over the union. It visits the shared keys in
// ascending order and adds one term per shared neighbor tuple.
//
// Along a flat path the kernel (sim.BlockIndex) agrees with it bit for
// bit: both add one term per shared tuple in ascending key order with the
// same float expressions (the kernel's child count of 1 multiplies
// exactly), and the operands' SumFwd totals were summed in key order (as
// propagation sums them), so the totals RefKernel sums afresh are the same
// bits. An operand whose SumFwd was summed in another order can differ in
// the last bits of Resem.
//
// Along a grouped path the two agree to rounding only, within 1e-12
// relative. The kernel adds the k children two members share under one
// parent, all carrying the same pair of group FBs, as one product k·x,
// parent by parent, where RefKernel adds k terms x one at a time in child
// key order, interleaved with other parents' children. Every term is
// non-negative, so the sums differ by a few rounding errors each, and the
// resemblance's denominator is at least the larger SumFwd, so nothing
// cancels.
func RefKernel(a, b prop.SparseNeighborhood) (resem, walkAB, walkBA float64) {
	a, b = FlatNB(a), FlatNB(b)
	bm := make(map[reldb.TupleID]prop.FB, len(b.Keys))
	for i, t := range b.Keys {
		bm[t] = b.FBs[i]
	}
	var sumA, sumB, interMin float64
	for _, fb := range a.FBs {
		sumA += fb.Fwd
	}
	for _, fb := range b.FBs {
		sumB += fb.Fwd
	}
	for i, t := range a.Keys {
		fa := a.FBs[i]
		if fb, ok := bm[t]; ok {
			interMin += math.Min(fa.Fwd, fb.Fwd)
			walkAB += fa.Fwd * fb.Bwd
			walkBA += fb.Fwd * fa.Bwd
		}
	}
	// Σ max over the union = Σ_a + Σ_b − Σ min over the intersection.
	if denom := sumA + sumB - interMin; denom > 0 {
		resem = interMin / denom
	}
	return resem, walkAB, walkBA
}
