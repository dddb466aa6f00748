package cluster

import "context"

// Threshold sweeps (TuneMinSim's grid, AgglomerateAuto's gap cut) only vary
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
// so the rise-back case is real; Cut detects it and refuses, and
// CutOrAgglomerate falls back to a direct run, counted in
// cluster.dendrogram_fallbacks.

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

// AgglomerateDendrogram runs the merge loop once with MinSim 0 and records
// every merge. MinSim in opts is ignored; Obs receives
// cluster.dendrogram_runs (instead of cluster.runs), cluster.merges, and
// cluster.heap_stale_pops.
func AgglomerateDendrogram(n int, ps PairSim, opts Options) *Dendrogram {
	d := &Dendrogram{N: n}
	if n <= 0 {
		return d
	}
	d.Merges = make([]DendroMerge, 0, n-1)
	// A background context never ends and carries no fault registry, so
	// the error return is impossible.
	_, _ = agglomerate(context.Background(), n, ps, opts, d)
	return d
}

// cutPrefix returns the length of the leading run of merges with
// similarity ≥ minSim, and whether that prefix is consistent: no later
// merge reaches minSim again. Only a consistent prefix reproduces a direct
// run at that threshold (see the package comment above).
func (d *Dendrogram) cutPrefix(minSim float64) (int, bool) {
	j := 0
	for j < len(d.Merges) && d.Merges[j].Sim >= minSim {
		j++
	}
	for i := j; i < len(d.Merges); i++ {
		if d.Merges[i].Sim >= minSim {
			return j, false
		}
	}
	return j, true
}

// Cut derives the partition a direct Agglomerate run at minSim would
// produce, bit-identically, when the recorded sequence is prefix-consistent
// for that threshold; ok is false (and the partition nil) otherwise. Output
// follows Agglomerate's order: clusters by smallest member, members
// ascending.
func (d *Dendrogram) Cut(minSim float64) ([][]int, bool) {
	if minSim < 0 {
		// The recording run pruned candidates below 0; a negative-threshold
		// run could accept them, so the prefix argument does not apply.
		return nil, false
	}
	j, ok := d.cutPrefix(minSim)
	if !ok {
		return nil, false
	}
	return d.cutAt(j), true
}

// cutAt replays the first j merges through parent links and groups the
// references with the engine's own partition builder.
func (d *Dendrogram) cutAt(j int) [][]int {
	n := d.N
	if n <= 0 {
		return nil
	}
	parent := make([]int32, n+j)
	for i := range parent {
		parent[i] = -1
	}
	size := make([]int32, n+j)
	for i := 0; i < n; i++ {
		size[i] = 1
	}
	for i := 0; i < j; i++ {
		m := d.Merges[i]
		nid := int32(n + i)
		parent[m.A] = nid
		parent[m.B] = nid
		size[nid] = size[m.A] + size[m.B]
	}
	return partition(parent, size, make([]int32, n+j), n, n-j)
}

// Sims returns the recorded merge similarities in merge order (the merge
// profile), sharing no storage with the dendrogram.
func (d *Dendrogram) Sims() []float64 {
	sims := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		sims[i] = m.Sim
	}
	return sims
}

// CutAtGap picks the gap-implied threshold from the recorded merge profile
// (see cutAtGapSims).
func (d *Dendrogram) CutAtGap(minRatio float64) (float64, bool) {
	return cutAtGapSims(d.Sims(), minRatio)
}

// CutOrAgglomerate derives the partition at opts.MinSim from the
// dendrogram when the cut is prefix-consistent, and falls back to a direct
// run otherwise — bit-identical to Agglomerate(d.N, ps, opts) either way.
// Fallbacks post cluster.dendrogram_fallbacks to opts.Obs (the direct run
// then posts its usual counters).
func CutOrAgglomerate(d *Dendrogram, ps PairSim, opts Options) [][]int {
	if out, ok := d.Cut(opts.MinSim); ok {
		return out
	}
	if opts.Obs != nil {
		opts.Obs.Counter("cluster.dendrogram_fallbacks").Inc()
	}
	return Agglomerate(d.N, ps, opts)
}
