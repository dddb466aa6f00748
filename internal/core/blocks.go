package core

import (
	"context"
	"sort"

	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
)

// Blocking: two references have nonzero similarity only if they share at
// least one neighbor tuple along some positively weighted join path — both
// measures (set resemblance and random walk) are sums over the shared
// neighborhood. Grouping references into connected components of the
// "shares a neighbor tuple" relation therefore partitions them into blocks
// with exactly zero similarity across blocks; with any positive min-sim,
// clustering each block independently yields the identical result while
// skipping the quadratic pairwise work between blocks. This is the
// classic inverted-index blocking of the record-linkage literature, made
// exact here by the structure of the measures.

// pathUsed reports whether join path p carries a nonzero resemblance or
// walk weight; any other path adds nothing to any similarity.
func (e *Engine) pathUsed(p int) bool { return e.resemW[p] != 0 || e.walkW[p] != 0 }

// unionFind is a standard disjoint-set with path halving.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// blocks partitions the references into connected components of the
// shared-neighbor relation, considering only join paths with a positive
// resemblance or walk weight. Each block lists indexes into refs, blocks
// ordered by smallest member, members ascending. Cancellation is observed
// at the stage boundary and during prefetch.
func (e *Engine) blocks(ctx context.Context, refs []reldb.TupleID) ([][]int, error) {
	st, ctx, err := e.begin(ctx, stageBlocks, trace.Int("refs", int64(len(refs))))
	if err != nil {
		return nil, err
	}
	if err := e.ext.PrefetchCtx(ctx, refs, e.cfg.Workers); err != nil {
		return nil, st.end(0, stageErr("prefetch", err))
	}
	uf := newUnionFind(len(refs))
	nbs := e.ext.NeighborhoodsAll(refs, nil)
	// Inverted index, one path at a time: first[t] is the first reference
	// seen holding neighbor tuple t along the path, -1 before any; later
	// holders union with it. Components do not depend on the order of the
	// unions, so walking path by path finds the same blocks as any other
	// order. first is the kernel scratch's dense tuple array, handed back
	// all -1 by walking the keys again.
	s := e.ext.BatchScratch()
	defer e.ext.PutBatchScratch(s)
	for p := range e.paths {
		if !e.pathUsed(p) {
			continue
		}
		first := s.TupleIndex(nbs, p)
		for i := range refs {
			for _, t := range nbs[i][p].Keys {
				if j := first[t]; j >= 0 {
					uf.union(i, int(j))
				} else {
					first[t] = int32(i)
				}
			}
		}
		for i := range refs {
			for _, t := range nbs[i][p].Keys {
				first[t] = -1
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := range refs {
		root := uf.find(i)
		byRoot[root] = append(byRoot[root], i)
	}
	out := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	if e.obs != nil {
		// Pairs kept is Σ over blocks of b(b-1)/2; pruned is what the
		// naive quadratic pass would have computed across blocks.
		n := int64(len(refs))
		naive := n * (n - 1) / 2
		var kept int64
		for _, b := range out {
			bn := int64(len(b))
			kept += bn * (bn - 1) / 2
		}
		e.obs.Counter("blocks.found").Add(int64(len(out)))
		e.obs.Counter("blocks.pairs_naive").Add(naive)
		e.obs.Counter("blocks.pairs_kept").Add(kept)
		e.obs.Counter("blocks.pairs_pruned").Add(naive - kept)
	}
	st.sp.SetAttrs(trace.Int("blocks", int64(len(out))))
	return out, st.end(len(refs), nil)
}

// disambiguateBlocked clusters each block independently; exact for
// MinSim > 0 (see the comment above). Output clusters are ordered by their
// smallest reference position, matching the unblocked path bit for bit.
// Cancellation is observed between blocks.
func (e *Engine) disambiguateBlocked(ctx context.Context, refs []reldb.TupleID) ([][]reldb.TupleID, error) {
	blocks, err := e.blocks(ctx, refs)
	if err != nil {
		return nil, err
	}
	pos := make(map[reldb.TupleID]int, len(refs))
	for i, r := range refs {
		if _, dup := pos[r]; !dup {
			pos[r] = i
		}
	}
	type ordered struct {
		at      int
		cluster []reldb.TupleID
	}
	var all []ordered
	for _, block := range blocks {
		sub := make([]reldb.TupleID, len(block))
		for i, x := range block {
			sub[i] = refs[x]
		}
		var clusters [][]reldb.TupleID
		if len(sub) == 1 {
			clusters = [][]reldb.TupleID{sub}
		} else {
			m, err := e.similarities(ctx, sub)
			if err != nil {
				return nil, err
			}
			if clusters, err = e.clusterRefs(ctx, sub, m); err != nil {
				return nil, err
			}
		}
		for _, c := range clusters {
			all = append(all, ordered{at: pos[c[0]], cluster: c})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([][]reldb.TupleID, len(all))
	for i, o := range all {
		out[i] = o.cluster
	}
	return out, nil
}
