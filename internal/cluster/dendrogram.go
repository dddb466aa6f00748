package cluster

// Threshold sweeps (TuneMinSim's grid, StopGap's cut) only vary
// where the merge sequence stops, not the merges themselves — as long as
// every merge a higher threshold would accept happens before every merge it
// would reject. So instead of re-running the agglomeration per threshold,
// run it once with MinSim 0, record the merge sequence (the dendrogram),
// and derive each threshold's partition by replaying a prefix.
//
// Why a prefix replay is exact when the order check passes: a run at
// threshold t maintains a candidate heap that is always the ≥t subset of
// the MinSim-0 run's heap, and while the best candidate is ≥ t both heaps
// agree on it (the comparator is a total order). The two runs therefore
// perform identical merges until the 0-run first accepts a candidate below
// t — if no later merge rises back above t, the t-run stops exactly there
// and its partition is the state after that prefix. The composite measure
// is not monotone in general (a merge can create a *more* similar pair),
// so the rise-back case is real; cut detects it and refuses, and Run falls
// back to a direct run, counted in cluster.dendrogram_fallbacks.

// DendroMerge is one recorded agglomeration step: the two cluster ids
// merged, their sizes at merge time, and the similarity it happened at.
// Ids follow the engine's dense scheme — originals 0..n-1, the i-th merge
// creates id n+i.
type DendroMerge struct {
	A, B         int32
	SizeA, SizeB int32
	Sim          float64
}

// Dendrogram is the full merge sequence of a MinSim-0 agglomeration over N
// references, in merge order.
type Dendrogram struct {
	N      int
	Merges []DendroMerge
}

// cut derives the partition a direct run at minSim would produce,
// bit-identically, when the recorded sequence is prefix-consistent for that
// threshold: after the leading run of merges at or above minSim, no later
// merge reaches minSim again (see above). ok is false (and the partition
// nil) otherwise. The partition replays that prefix through parent links
// and groups the references with the engine's own partition builder.
func (d *Dendrogram) cut(minSim float64) ([][]int, bool) {
	if minSim < 0 {
		// The recording run pruned candidates below 0; a negative-threshold
		// run could accept them, so the prefix argument does not apply.
		return nil, false
	}
	j := 0
	for j < len(d.Merges) && d.Merges[j].Sim >= minSim {
		j++
	}
	for _, m := range d.Merges[j:] {
		if m.Sim >= minSim {
			return nil, false
		}
	}
	n := d.N
	if n <= 0 {
		return nil, true
	}
	parent := make([]int32, n+j)
	size := make([]int32, n+j)
	for i := range parent {
		parent[i], size[i] = -1, 1
	}
	for i, m := range d.Merges[:j] {
		nid := n + i
		parent[m.A], parent[m.B] = int32(nid), int32(nid)
		size[nid] = size[m.A] + size[m.B]
	}
	return partition(parent, size, make([]int32, n+j), n, n-j), true
}

// sims returns the recorded merge similarities in merge order (the merge
// profile).
func (d *Dendrogram) sims() []float64 {
	sims := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		sims[i] = m.Sim
	}
	return sims
}
