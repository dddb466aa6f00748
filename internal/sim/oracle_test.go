package sim

import (
	"math"
	"sort"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// nbMap is a neighborhood in map form, the way tests build them by hand or
// at random before finalising them with sparse.
type nbMap map[reldb.TupleID]prop.FB

// sparse finalises the map into the kernels' sorted sparse form, with
// SumFwd accumulated in key order.
func (n nbMap) sparse() prop.SparseNeighborhood {
	if len(n) == 0 {
		return prop.SparseNeighborhood{}
	}
	keys := make([]reldb.TupleID, 0, len(n))
	for t := range n {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fbs := make([]prop.FB, len(keys))
	var sum float64
	for i, t := range keys {
		fbs[i] = n[t]
		sum += fbs[i].Fwd
	}
	return prop.SparseNeighborhood{Keys: keys, FBs: fbs, SumFwd: sum}
}

// flatNB returns nb in flat form: a grouped neighborhood's segments
// (prop.SparseNeighborhood.AppendSegments) sorted into key order, with
// nb's own SumFwd; a flat one as it is.
func flatNB(nb prop.SparseNeighborhood) prop.SparseNeighborhood {
	if nb.Tail == nil {
		return nb
	}
	m := nbMap{}
	for _, sg := range nb.AppendSegments(nil) {
		for k, t := range sg.Keys {
			m[t] = sg.Shared
			if sg.FBs != nil {
				m[t] = sg.FBs[k]
			}
		}
	}
	flat := m.sparse()
	flat.SumFwd = nb.SumFwd
	return flat
}

// refKernel is the similarity oracle: a Trip's three outputs computed the
// naive way over the operands' flat forms — b's entries loaded into a hash
// map, every key of a probed in it, both Fwd totals summed afresh rather
// than read from SumFwd, and the Jaccard denominator taken as Σ max over
// the union. The property and fuzz tests hold the postings kernel to it
// bit for bit. That holds because both visit the shared keys in ascending
// order with the same float expressions, and because the operands' SumFwd
// totals were summed in key order (as nbMap.sparse, randGrouped and
// propagation sum them), so the totals refKernel sums afresh are the same
// bits. An operand whose SumFwd was summed in another order can differ in
// the last bits of Resem.
func refKernel(a, b prop.SparseNeighborhood) (resem, walkAB, walkBA float64) {
	a, b = flatNB(a), flatNB(b)
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

// views returns nb's neighborhood along every path, in path order.
func views(nb *prop.Neighborhoods) []prop.SparseNeighborhood {
	out := make([]prop.SparseNeighborhood, nb.NumPaths())
	for p := range out {
		out[p] = nb.Path(p)
	}
	return out
}

// packBlock packs every member of a block given as views (block[i][p] is
// member i's neighborhood along path p) into the value the kernel reads.
func packBlock(block [][]prop.SparseNeighborhood) []*prop.Neighborhoods {
	out := make([]*prop.Neighborhoods, len(block))
	for i, nbs := range block {
		out[i] = prop.Pack(nbs)
	}
	return out
}
