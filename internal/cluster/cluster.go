// Package cluster implements the agglomerative hierarchical clustering of
// DISTINCT (Section 4). Each reference starts as its own cluster; the most
// similar pair of clusters is merged repeatedly until the best similarity
// falls below a threshold (min-sim).
//
// Cluster-pair similarity is a composite measure: the geometric average of
//
//   - the Average-Link set resemblance between the clusters (the mean of the
//     learned resemblance over all cross-cluster reference pairs), and
//   - the collective random walk probability between the clusters (walking
//     from a uniformly chosen reference of one cluster to any reference of
//     the other, symmetrised).
//
// The geometric average keeps one measure from drowning out the other when
// their scales differ (Section 4.1). Alternative measures — each measure
// alone, arithmetic combination, single/complete link — are provided for the
// paper's Figure 4 variants and for ablation benchmarks.
//
// Every cluster-pair statistic is aggregable: merging clusters C1 and C2
// derives every (C3, Ci) entry from the (C1, Ci) and (C2, Ci) entries in
// O(1), the incremental computation of Section 4.2. A pair needs three of
// them — the directed walk sums both ways and one resemblance aggregate,
// which is a sum under every measure but SingleLink (a maximum) and
// CompleteLink (a minimum) — so a cluster pair is the same 24-byte Cell as
// a reference pair.
//
// The engine keeps all pair statistics in flat storage: the original pairs
// are read straight from the caller's packed Matrix triangle, which a run
// never writes, and post-merge stats live in per-cluster rows (see
// scratch), cluster membership in union-find parent links. Cluster ids are
// dense and never reused — originals are 0..n-1 and the i-th merge creates
// id n+i — so every lookup is array indexing and a warm run's merge loop
// performs no allocation. The map-based implementation it replaced is the
// package's test oracle (oracle_test.go): the property and fuzz tests hold
// the flat engine's partitions and merge sequences to it bit for bit.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

// Measure selects how cluster-pair similarity is derived from the base
// similarities.
type Measure int

const (
	// Combined is DISTINCT's measure: geometric mean of Average-Link
	// resemblance and collective walk probability.
	Combined Measure = iota
	// ResemOnly uses Average-Link set resemblance alone (the measure of
	// Bhattacharya & Getoor's relational clustering, reference [1]).
	ResemOnly
	// WalkOnly uses collective random walk probability alone (the measure
	// of Kalashnikov et al., reference [9]).
	WalkOnly
	// CombinedArithmetic replaces the geometric mean with an arithmetic
	// mean; an ablation showing why the paper picked the geometric mean.
	CombinedArithmetic
	// SingleLink and CompleteLink use the maximum/minimum resemblance over
	// cross-cluster pairs; ablations for the Section 4.1 discussion.
	SingleLink
	CompleteLink
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Combined:
		return "combined"
	case ResemOnly:
		return "set-resemblance"
	case WalkOnly:
		return "random-walk"
	case CombinedArithmetic:
		return "combined-arithmetic"
	case SingleLink:
		return "single-link"
	case CompleteLink:
		return "complete-link"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Stop selects where a run stops merging.
type Stop int

const (
	// StopMinSim stops once the best cluster-pair similarity falls below
	// Options.MinSim: the paper's procedure.
	StopMinSim Stop = iota
	// StopDendrogram merges down to one cluster, ignoring MinSim, and
	// records every merge in Result.Dendrogram instead of a partition.
	StopDendrogram
	// StopGap records the dendrogram and cuts it at its largest similarity
	// collapse when one at least DefaultGapRatio wide exists, and at MinSim
	// otherwise (see gap.go).
	StopGap
)

// Options configures a clustering run.
type Options struct {
	Measure Measure
	// MinSim stops merging once the best cluster-pair similarity falls
	// below it. The paper runs DISTINCT with min-sim 0.0005.
	MinSim float64
	// Stop picks the stopping rule; the zero value is StopMinSim.
	Stop Stop
	// From, when non-nil, is a dendrogram recorded over the same matrix
	// under the same measure. A StopMinSim run then derives its partition
	// by cutting it, and merges only when the cut is not prefix-consistent
	// (counted in cluster.dendrogram_fallbacks); the partition is the same
	// either way (see dendrogram.go). The other stops ignore it.
	From *Dendrogram
	// Obs, when non-nil, receives each merge loop's counters: cluster.runs
	// (cluster.dendrogram_runs when recording), cluster.merges,
	// cluster.pruned_below_minsim (candidate pairs the stop threshold kept
	// out of the merge heap; not when recording), cluster.heap_stale_pops
	// (heap entries popped after one of their clusters was merged away),
	// and cluster.stat_merges (pair stats combined: n−2−k at merge k of n
	// references). Counts accumulate locally and post once per loop, so
	// instrumentation stays off the merge loop's hot path.
	Obs *obs.Registry
	// Span, when non-nil, receives each merge loop's provenance: one "merge"
	// event per agglomeration step (cluster ids, sizes, and the composite
	// similarity it happened at) and one final "cut" event carrying the
	// stop statistics — merges, prunes, surviving clusters, the threshold,
	// the last accepted similarity, the best similarity the threshold
	// rejected, and the gap ratio between the two.
	Span *trace.Span
}

// Result is the outcome of a run.
type Result struct {
	// Clusters is the partition as lists of reference indexes, clusters
	// sorted by their smallest member and members ascending, so output is
	// deterministic. The member slices share one backing array; they are
	// carved at full capacity, so appending to one copies it. Nil under
	// StopDendrogram.
	Clusters [][]int
	// Dendrogram is the recorded merge sequence under StopDendrogram, nil
	// otherwise.
	Dendrogram *Dendrogram
}

// Run clusters the m.N references of m under the options. It only reads m,
// so concurrent runs may share one Matrix. Cancellation is observed between
// heap-build rows and between merge iterations, so a pathological block
// aborts with latency bounded by one row / one merge step; the merge loop
// also exposes the "cluster.merge" fault point for chaos testing. Its
// working buffers come from a pool.
func Run(ctx context.Context, m Matrix, opts Options) (Result, error) {
	return run(ctx, m, opts, nil)
}

// run is Run on the scratch s, or on a pooled one when s is nil.
func run(ctx context.Context, m Matrix, opts Options, s *scratch) (Result, error) {
	if opts.Stop == StopGap {
		rec := opts
		rec.Stop = StopDendrogram
		res, err := agglomerate(ctx, m, rec, s)
		if err != nil {
			return Result{}, err
		}
		if cut, ok := cutAtGapSims(res.Dendrogram.sims(), DefaultGapRatio); ok {
			opts.MinSim = cut
		}
		opts.Stop, opts.From = StopMinSim, res.Dendrogram
	}
	if opts.Stop == StopMinSim && opts.From != nil {
		if out, ok := opts.From.cut(opts.MinSim); ok {
			return Result{Clusters: out}, nil
		}
		if opts.Obs != nil {
			opts.Obs.Counter("cluster.dendrogram_fallbacks").Inc()
		}
	}
	return agglomerate(ctx, m, opts, s)
}

// Agglomerate is Run's partition on a background context over the n
// references of m. It panics when n is not m's size.
func Agglomerate(n int, m Matrix, opts Options) [][]int {
	if n != m.N {
		panic(fmt.Sprintf("cluster: Agglomerate of %d references over a %d-reference matrix", n, m.N))
	}
	res, err := Run(context.Background(), m, opts)
	fault.Rethrow(err)
	return res.Clusters
}

type candidate struct {
	sim  float64
	a, b int32 // cluster ids, a < b
}

// candidateHeap is a max-heap of merge candidates under (sim desc, a asc,
// b asc) — a total order, so the pop sequence is a pure function of the
// contents and any correct heap yields the same merge order. That also
// means removing stale entries (both already popped-and-skipped and
// compacted-away ones) can never change the order the live candidates pop
// in. Hand-rolled instead of container/heap so push/pop stay monomorphic:
// no interface boxing (one small allocation per push) and no indirect
// Less/Swap calls inside the merge loop.
type candidateHeap []candidate

func (h candidateHeap) less(i, j int) bool {
	if h[i].sim != h[j].sim {
		return h[i].sim > h[j].sim
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}

func (h candidateHeap) down(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h candidateHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *candidateHeap) push(c candidate) {
	s := append(*h, c)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *candidateHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.down(0, n)
	return top
}

// compactMinHeap gates stale-entry compaction: below this size the wasted
// sift work is cheaper than rebuilding, so small blocks never compact.
const compactMinHeap = 1024

// agglomerate is the merge loop behind Run, stopping at MinSim, on the
// scratch s or a pooled one when s is nil. Under StopDendrogram MinSim is
// treated as 0 and every merge is recorded instead of a partition being
// materialised.
//
// On error a pooled scratch is NOT returned to the pool: a caller observing
// the error may be racing a hook that still holds the buffers, and a
// dropped scratch is cheaper than a torn one.
func agglomerate(ctx context.Context, m Matrix, opts Options, s *scratch) (Result, error) {
	n := m.N
	minSim := opts.MinSim
	var rec *Dendrogram
	if opts.Stop == StopDendrogram {
		minSim = 0
		rec = &Dendrogram{N: n, Merges: make([]DendroMerge, 0, max(n-1, 0))}
	}
	if n <= 0 {
		return Result{Dendrogram: rec}, nil
	}
	fromPool := false
	if s == nil {
		s = scratchPool.Get().(*scratch)
		fromPool = true
	}
	s.reset(n)

	var merges, pruned, stalePops, statMerges int64 // posted to opts.Obs once per run
	// Stop statistics for the final "cut" event: the similarity of the last
	// accepted merge and the best similarity MinSim rejected. Their ratio is
	// the gap the threshold sits in — a large ratio means the cut landed in
	// a crisp same-object/different-object boundary.
	var lastMergeSim, bestRejected float64
	span := opts.Span

	// Seed the heap with all original pairs, read in triangle order.
	k := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for j := i + 1; j < n; j++ {
			if sim := similarity(m.Cells[k], 1, 1, opts.Measure); sim >= minSim {
				s.heap = append(s.heap, candidate{sim: sim, a: int32(i), b: int32(j)})
				s.nref[i]++
				s.nref[j]++
			} else {
				pruned++
				if sim > bestRejected {
					bestRejected = sim
				}
			}
			k++
		}
	}
	s.heap.init()

	// staleApprox tracks (an upper bound on) the stale entries still in the
	// heap: a merge strands every entry referencing the two dead clusters,
	// a stale pop drains one. It can overcount pairs whose endpoints both
	// died — that only triggers compaction a little early.
	staleApprox := int64(0)
	freg := fault.From(ctx)
	nid := int32(n)
	for len(s.heap) > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if freg != nil {
			if err := freg.Fire(ctx, "cluster.merge"); err != nil {
				return Result{}, err
			}
		}
		c := s.heap.pop()
		s.nref[c.a]--
		s.nref[c.b]--
		if !s.isAlive(c.a) || !s.isAlive(c.b) {
			// Stale entry for a merged-away cluster.
			stalePops++
			if staleApprox > 0 {
				staleApprox--
			}
			continue
		}
		// Cluster ids are never reused and a pair's stats never change while
		// both clusters are alive, so the popped similarity is current.
		merges++
		lastMergeSim = c.sim
		if span != nil {
			span.Event("merge",
				trace.Int("a", int64(c.a)), trace.Int("b", int64(c.b)),
				trace.Int("new", int64(nid)),
				trace.Float("sim", c.sim),
				trace.Int("size_a", int64(s.size[c.a])),
				trace.Int("size_b", int64(s.size[c.b])))
		}
		if rec != nil {
			rec.Merges = append(rec.Merges, DendroMerge{
				A: c.a, B: c.b, Sim: c.sim,
				SizeA: s.size[c.a], SizeB: s.size[c.b],
			})
		}
		s.kill(c.a)
		s.kill(c.b)
		staleApprox += int64(s.nref[c.a] + s.nref[c.b])
		mi := int(nid) - n
		s.size[nid] = s.size[c.a] + s.size[c.b]
		s.parent[c.a] = nid
		s.parent[c.b] = nid
		s.parent[nid] = -1
		s.nref[nid] = 0

		// Derive the merged cluster's stats against every live cluster by a
		// linear scan over the alive bitmap (ids ascending — and because the
		// heap order is total, push order cannot affect the merge order).
		row := s.carve(int(nid))
		s.rowOf[mi] = row
		newSize := int(s.size[nid])
		for w, word := range s.alive[:(int(nid)+63)/64] {
			for word != 0 {
				oid := int32(w<<6 + bits.TrailingZeros64(word))
				word &= word - 1
				sa := s.statAt(m, oid, c.a)
				sb := s.statAt(m, oid, c.b)
				ns := mergeOriented(sa, sb, int(oid), int(c.a), int(c.b), opts.Measure)
				statMerges++
				row[oid] = ns
				if sim := similarity(ns, int(s.size[oid]), newSize, opts.Measure); sim >= minSim {
					s.heap.push(candidate{sim: sim, a: oid, b: nid})
					s.nref[oid]++
					s.nref[nid]++
				} else {
					pruned++
					if sim > bestRejected {
						bestRejected = sim
					}
				}
			}
		}
		s.setAlive(nid)
		nid++

		// Compact once stale entries outnumber live ones: drop every entry
		// with a dead endpoint and re-heapify. Safe because the comparator
		// is a total order (removals never reorder the survivors).
		if staleApprox*2 > int64(len(s.heap)) && len(s.heap) >= compactMinHeap {
			kept := s.heap[:0]
			for _, cand := range s.heap {
				if s.isAlive(cand.a) && s.isAlive(cand.b) {
					kept = append(kept, cand)
				}
			}
			s.heap = kept
			s.heap.init()
			clear(s.nref[:nid])
			for _, cand := range s.heap {
				s.nref[cand.a]++
				s.nref[cand.b]++
			}
			staleApprox = 0
		}
	}

	if opts.Obs != nil {
		if rec != nil {
			opts.Obs.Counter("cluster.dendrogram_runs").Inc()
		} else {
			opts.Obs.Counter("cluster.runs").Inc()
			opts.Obs.Counter("cluster.pruned_below_minsim").Add(pruned)
		}
		opts.Obs.Counter("cluster.merges").Add(merges)
		opts.Obs.Counter("cluster.heap_stale_pops").Add(stalePops)
		opts.Obs.Counter("cluster.stat_merges").Add(statMerges)
	}

	var out [][]int
	if rec == nil {
		out = partition(s.parent, s.size, s.outIdx, n, n-int(merges))
	}

	if span != nil {
		// Gap ratio between the last accepted merge and the best rejected
		// candidate; 0 when either side is missing (no merges, or nothing
		// fell below the threshold).
		gap := 0.0
		if lastMergeSim > 0 && bestRejected > 0 {
			gap = lastMergeSim / bestRejected
		}
		span.Event("cut",
			trace.Int("merges", merges), trace.Int("pruned", pruned),
			trace.Int("clusters", int64(len(out))),
			trace.Float("min_sim", minSim),
			trace.Float("last_merge_sim", lastMergeSim),
			trace.Float("best_rejected_sim", bestRejected),
			trace.Float("gap", gap))
	}
	if fromPool {
		scratchPool.Put(s)
	}
	return Result{Clusters: out, Dendrogram: rec}, nil
}

// partition materialises the clustering of references 0..n-1 from
// union-find parent links (-1 at a root) and root sizes: clusters appear in
// order of their smallest member with members ascending (references are
// visited in index order, so both properties fall out of first-seen
// grouping). outIdx, indexed by cluster id, must be all zero; it is used as
// the root -> output cluster index + 1 map, and parent is path-compressed
// along the way. All member slices are carved from one backing array — the
// whole output is two allocations.
func partition(parent, size, outIdx []int32, n, nClusters int) [][]int {
	backing := make([]int, n)
	out := make([][]int, 0, nClusters)
	off := 0
	for r := 0; r < n; r++ {
		// Find the root, with path compression for the next lookups.
		root := int32(r)
		for parent[root] >= 0 {
			root = parent[root]
		}
		for c := int32(r); c != root; {
			nxt := parent[c]
			parent[c] = root
			c = nxt
		}
		idx := outIdx[root]
		if idx == 0 {
			sz := int(size[root])
			out = append(out, backing[off:off:off+sz])
			off += sz
			idx = int32(len(out))
			outIdx[root] = idx
		}
		out[idx-1] = append(out[idx-1], r)
	}
	return out
}

// mergeOriented combines the (o, a) and (o, b) stats into the stats between
// o and the merged cluster under measure meas. The merged cluster always
// receives the highest id, so the result's WAB must flow o -> merged; both
// inputs are normalised to that orientation first (stored WAB flows low id
// -> high).
func mergeOriented(sa, sb Cell, o, a, b int, meas Measure) Cell {
	if o > a {
		sa.WAB, sa.WBA = sa.WBA, sa.WAB
	}
	if o > b {
		sb.WAB, sb.WBA = sb.WBA, sb.WAB
	}
	r := sa.R + sb.R
	switch meas {
	case SingleLink:
		r = sa.R
		if sb.R > r {
			r = sb.R
		}
	case CompleteLink:
		r = sa.R
		if sb.R < r {
			r = sb.R
		}
	}
	return Cell{R: r, WAB: sa.WAB + sb.WAB, WBA: sa.WBA + sb.WBA}
}

// similarity computes the cluster-pair similarity from aggregated stats
// under measure m. sizeA is the size of the lower-id cluster (WAB flows
// from it).
func similarity(st Cell, sizeA, sizeB int, m Measure) float64 {
	if m == SingleLink || m == CompleteLink {
		return st.R
	}
	avgResem := st.R / float64(sizeA*sizeB)
	collWalk := (st.WAB/float64(sizeA) + st.WBA/float64(sizeB)) / 2
	switch m {
	case ResemOnly:
		return avgResem
	case WalkOnly:
		return collWalk
	case CombinedArithmetic:
		return (avgResem + collWalk) / 2
	default:
		return math.Sqrt(avgResem * collWalk)
	}
}

// Cell holds the base similarities of one reference pair (i, j), i < j: R
// is the combined set resemblance (symmetric), WAB the directed random walk
// probability from i to j and WBA the one back. In the merge loop a Cell
// aggregates a cluster pair, A being the lower cluster id: WAB and WBA sum
// the walks, and R sums the resemblances — or keeps their maximum under
// SingleLink and their minimum under CompleteLink.
type Cell struct {
	R, WAB, WBA float64
}

// Matrix holds the base similarities between N references, identified by
// dense indexes 0..N-1, as one packed upper triangle: the cell of pair
// (i, j), i < j, is Cells[i*N − i(i+1)/2 + (j−i−1)], so each row's cells
// are contiguous (see Row).
type Matrix struct {
	N     int
	Cells []Cell
}

// NewMatrix allocates a zero matrix over n references.
func NewMatrix(n int) Matrix {
	return Matrix{N: n, Cells: make([]Cell, n*(n-1)/2)}
}

// Row returns the cells of the pairs (i, j), j = i+1..N-1, in order:
// Row(i)[j-i-1] is pair (i, j).
func (m Matrix) Row(i int) []Cell {
	lo := i*m.N - i*(i+1)/2
	return m.Cells[lo : lo+m.N-i-1 : lo+m.N-i-1]
}
