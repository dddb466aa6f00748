package sim

import (
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
