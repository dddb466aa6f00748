package cluster

import (
	"math"
	"sort"
)

// This file holds the package's test oracle: the pre-flat, map-based
// agglomeration. The property tests and FuzzAgglomerate assert that the
// flat engine reproduces its partitions and merge sequences bit for bit.
// It is unoptimised on purpose — no scratch, no counters, no spans — so its
// correctness is easy to audit against the paper's Section 4.2. It keeps
// its own statistics, all five the measures can ask for, and its own
// merge and similarity, so it checks the engine's one-aggregate Cell
// independently rather than sharing its arithmetic.

// Merge records one agglomeration step: the members of the two clusters
// merged (lower-id cluster first, each in concat order: a merged cluster
// lists its lower-id child's members, then its higher-id child's) and the
// similarity at which it happened.
type Merge struct {
	A, B []int
	Sim  float64
}

type refClusterState struct {
	members []int
	alive   bool
}

// agglomerateOracle clusters the references of m like Run, but with the
// original map-keyed pair-stats storage and eagerly materialised member
// lists, and also returns the merge sequence. Quadratic allocation
// behaviour, no observability.
func agglomerateOracle(m Matrix, opts Options) ([][]int, []Merge) {
	n := m.N
	if n <= 0 {
		return nil, nil
	}
	var mergeLog []Merge
	clusters := make([]refClusterState, n, 2*n)
	for i := range clusters {
		clusters[i] = refClusterState{members: []int{i}, alive: true}
	}
	stats := make(map[uint64]oracleStats, n*(n-1)/2)
	h := make(candidateHeap, 0, n*(n-1)/2)
	bestRejected := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := m.Row(i)[j-i-1]
			st := oracleStats{
				sumResem: c.R, minResem: c.R, maxResem: c.R,
				walkAB: c.WAB, walkBA: c.WBA,
			}
			stats[pairKey(i, j)] = st
			if s := st.similarity(1, 1, opts.Measure); s >= opts.MinSim {
				h = append(h, candidate{sim: s, a: int32(i), b: int32(j)})
			} else if s > bestRejected {
				bestRejected = s
			}
		}
	}
	h.init()

	for len(h) > 0 {
		c := h.pop()
		if !clusters[c.a].alive || !clusters[c.b].alive {
			continue // stale entry for a merged-away cluster
		}
		clusters[c.a].alive = false
		clusters[c.b].alive = false
		nid := len(clusters)
		merged := append(append([]int(nil), clusters[c.a].members...), clusters[c.b].members...)
		clusters = append(clusters, refClusterState{members: merged, alive: true})
		mergeLog = append(mergeLog, Merge{
			A:   append([]int(nil), clusters[c.a].members...),
			B:   append([]int(nil), clusters[c.b].members...),
			Sim: c.sim,
		})

		for oid := range clusters[:nid] {
			if !clusters[oid].alive {
				continue
			}
			// Orient both inputs so walkAB flows oid -> the merged cluster,
			// which holds the highest id.
			sa := takeStats(stats, oid, int(c.a))
			if oid > int(c.a) {
				sa.walkAB, sa.walkBA = sa.walkBA, sa.walkAB
			}
			sb := takeStats(stats, oid, int(c.b))
			if oid > int(c.b) {
				sb.walkAB, sb.walkBA = sb.walkBA, sb.walkAB
			}
			ns := oracleStats{
				sumResem: sa.sumResem + sb.sumResem,
				minResem: math.Min(sa.minResem, sb.minResem),
				maxResem: math.Max(sa.maxResem, sb.maxResem),
				walkAB:   sa.walkAB + sb.walkAB,
				walkBA:   sa.walkBA + sb.walkBA,
			}
			stats[pairKey(oid, nid)] = ns
			s := ns.similarity(len(clusters[oid].members), len(merged), opts.Measure)
			if s >= opts.MinSim {
				h.push(candidate{sim: s, a: int32(oid), b: int32(nid)})
			} else if s > bestRejected {
				bestRejected = s
			}
		}
		delete(stats, pairKey(int(c.a), int(c.b)))
	}

	var out [][]int
	for _, c := range clusters {
		if c.alive {
			m := append([]int(nil), c.members...)
			sort.Ints(m)
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, mergeLog
}

// oracleStats aggregates the base similarities between two clusters, one
// field per aggregate any measure reads.
type oracleStats struct {
	sumResem           float64
	minResem, maxResem float64
	walkAB, walkBA     float64 // directed sums, A = lower cluster id
}

// similarity is the cluster-pair similarity of Section 4.1 and its
// ablations; sizeA is the size of the lower-id cluster.
func (st oracleStats) similarity(sizeA, sizeB int, m Measure) float64 {
	avgResem := st.sumResem / float64(sizeA*sizeB)
	collWalk := (st.walkAB/float64(sizeA) + st.walkBA/float64(sizeB)) / 2
	switch m {
	case ResemOnly:
		return avgResem
	case WalkOnly:
		return collWalk
	case CombinedArithmetic:
		return (avgResem + collWalk) / 2
	case SingleLink:
		return st.maxResem
	case CompleteLink:
		return st.minResem
	default:
		return math.Sqrt(avgResem * collWalk)
	}
}

// pairKey packs a cluster pair into one word, low id in the high half.
// Cluster ids stay below 2n (n originals plus at most n-1 merges), so the
// halves never truncate for any clusterable input.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// takeStats removes and returns the stats between clusters x and y, oriented
// so walkAB flows from min(x,y) to max(x,y).
func takeStats(stats map[uint64]oracleStats, x, y int) oracleStats {
	key := pairKey(x, y)
	st := stats[key]
	delete(stats, key)
	return st
}

// dendroMerges rebuilds the member lists of a dendrogram's merges from its
// cluster ids, in the oracle's concat order, so the flat engine's merge
// sequence can be compared with the oracle's.
func dendroMerges(d *Dendrogram) []Merge {
	members := make([][]int, d.N, d.N+len(d.Merges))
	for i := range members {
		members[i] = []int{i}
	}
	out := make([]Merge, len(d.Merges))
	for i, m := range d.Merges {
		a, b := members[m.A], members[m.B]
		out[i] = Merge{A: a, B: b, Sim: m.Sim}
		members = append(members, append(append([]int(nil), a...), b...))
	}
	return out
}
