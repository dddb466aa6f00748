package prop

import (
	"context"
	"math/bits"
	"slices"

	"distinct/internal/fault"
	"distinct/internal/reldb"
)

// This file is the propagation engine: the path prefix trie of multi.go,
// walked level by level over CSR hop plans (reldb.HopCSR) instead of tuple
// by tuple through hash indexes. The recursive DFS of the package doc is
// the test oracle (oracle_test.go); compiled_test.go and the
// FuzzCompiledPropagation target hold the two within 1e-12 of each other
// on random schemas, including cyclic ones.
//
// # Frontier propagation
//
// At each trie node the engine holds a frontier: the distinct tuples
// (as dense relation ordinals) reached after the node's step, with the
// aggregated forward mass F and backward mass B of every DFS path instance
// ending there. One pass over the frontier's CSR rows produces the child
// frontier — O(edges touched) with sequential array access, instead of one
// hash lookup and one interface call per DFS edge visit.
//
// # The no-backtrack rule, per edge instead of per instance
//
// The DFS forbids stepping straight back to the tuple it arrived from. At
// the aggregated level that rule depends on where mass came from, so node
// totals alone are not enough: when a hop can mirror its parent hop (the
// child steps back into the relation the parent left — the coauthor-style
// "bounce"), the engine also keeps the parent hop's per-edge masses. For a
// frontier tuple t with out-degree d0, aggregated masses (F, B), bounce
// in-mass Fx = Σ parent-edge mass arriving over mirrors of t's out-edges,
// and an out-edge g: t→v whose mirror v→t carried (f_v, b_v):
//
//	mF(g) = (F − Fx)/d0 + (Fx − f_v)/(d0 − 1)
//	mB(g) = (B − b_v) / rev(v)
//
// Mass that did not arrive from an out-neighbor splits over all d0 edges;
// mass that arrived from out-neighbor v' splits over the d0 − 1 edges that
// exclude v'; and v's own returning mass (f_v, b_v) contributes nothing.
// For an edge with no mirror, f_v = b_v = 0 and the correction term becomes
// Fx/(d0 − 1). When d0 == 1 the correction term is mathematically zero
// (Fx == f_v: the only possible bounce origin is the single out-neighbor)
// and is skipped, avoiding the 0/0. The per-edge masses are exact sums of
// the DFS instance masses up to floating-point association, which is why
// equivalence is 1e-12, not bit-identical.
//
// Cancellation in F − Fx can leave a pure-backtrack edge with a few ULPs of
// spurious — possibly negative — mass; edges with mF ≤ 0 are dropped (every
// DFS-traversed edge carries strictly positive forward mass) and a negative
// B − b_v clamps to zero.
//
// # Determinism
//
// The frontier is deterministic: rows are visited in ordinal order and
// edges in row order, so every float is accumulated in one fixed order
// regardless of worker count. Emission visits the final frontier's ordinals
// in ascending order (Scratch.ascending); ordinal order within a relation is
// ascending TupleID order, so the SparseNeighborhood comes out sorted, with
// SumFwd accumulated in key order.
//
// # Emission
//
// A frontier's ordinals are distinct and below the target relation's size,
// so when they are dense in their [min, max] range a bitmap over that range
// yields them in order in O(n + range/64), with no comparison sort; sparse
// or small frontiers fall back to slices.Sort. Every path's keys and masses
// are packed onto the scratch during the walk and copied out once per
// reference into one []TupleID and one []FB; each path's neighborhood is a
// capacity-capped window of those two arrays, so a propagation allocates
// the result slice plus two backing arrays, whatever the number of paths.

// ctNode is one compiled trie node.
type ctNode struct {
	hop      *reldb.HopCSR
	backRef  []int32 // mirror-edge indexes into the parent hop, nil if none
	terminal []int32 // path indexes ending here
	children []int32
	depth    int32
	// storeEdges: some child can bounce, so this node must record per-edge
	// masses for the child's exclusion arithmetic.
	storeEdges bool
	// dead: the step cannot chain after the parent (relation mismatch in a
	// hand-built path); the subtree can never carry mass and is skipped.
	dead bool
}

// CompiledTrie is a Trie bound to one database's CSR hop plans. It is
// immutable after compilation and shared read-only across goroutines; all
// per-propagation state lives in a Scratch.
type CompiledTrie struct {
	db    *reldb.Database
	paths []reldb.JoinPath
	nodes []ctNode
	roots []int32

	maxDepth int
	posLen   []int // per depth: ordinal-index size (max target relation size)
	edgeLen  []int // per depth: edge-buffer size (max edges of storing nodes)

	statHops, statEdges int
}

// CompileTrieCtx compiles the trie against db, fetching hop plans from the
// database's shared cache (compiled lazily, each hop once per database).
// The per-hop compiles are farmed over `workers` goroutines (0 means
// GOMAXPROCS). Per-hop compiles are independent, so the warm-up claims hops
// exactly once and observes ctx between hops; the serial assembly then
// finds every plan already in the database's cache. A cancelled context
// only stops the speculative warm-up — assembly compiles whatever the
// warm-up skipped, so the returned trie is always complete and correct.
func CompileTrieCtx(ctx context.Context, db *reldb.Database, t *Trie, workers int) *CompiledTrie {
	warmHops(ctx, db, distinctHops(db, t), workers)
	return compileTrie(db, t)
}

// hopIdent identifies one distinct hop plan: a step applied from a source
// relation. It is the database plan cache's key, mirrored here.
type hopIdent struct {
	from string
	step reldb.Step
}

// distinctHops walks the trie and returns each distinct hop once, in
// deterministic DFS order.
func distinctHops(db *reldb.Database, t *Trie) []hopIdent {
	var hops []hopIdent
	seen := make(map[hopIdent]bool)
	var walk func(tn *trieNode)
	walk = func(tn *trieNode) {
		if id := (hopIdent{from: tn.step.From(db.Schema), step: tn.step}); !seen[id] {
			seen[id] = true
			hops = append(hops, id)
		}
		for _, c := range tn.children {
			walk(c)
		}
	}
	for _, c := range t.root.children {
		walk(c)
	}
	return hops
}

// warmHops compiles the given hops into db's plan cache on `workers`
// goroutines (0 means GOMAXPROCS), each hop exactly once, observing ctx
// between hops, so the latency to abort is bounded by one hop compile. Its
// error is dropped on purpose: a context end only means the caller's serial
// assembly compiles the rest, and a hop that panicked here panics again on
// the caller's goroutine when the assembly requests it (the plan cache
// replays a compile's panic).
func warmHops(ctx context.Context, db *reldb.Database, hops []hopIdent, workers int) {
	_ = fault.ParallelFor(ctx, len(hops), workers, func(i int) error {
		db.HopFor(hops[i].from, hops[i].step)
		return nil
	})
}

func compileTrie(db *reldb.Database, t *Trie) *CompiledTrie {
	ct := &CompiledTrie{db: db, paths: t.paths}
	type pairKey struct{ parent, child *reldb.HopCSR }
	seen := make(map[hopIdent]bool)
	brCache := make(map[pairKey][]int32)
	var build func(tn *trieNode, parent *reldb.HopCSR, depth int) int32
	build = func(tn *trieNode, parent *reldb.HopCSR, depth int) int32 {
		from := tn.step.From(db.Schema)
		hop := db.HopFor(from, tn.step)
		if id := (hopIdent{from: from, step: tn.step}); !seen[id] {
			seen[id] = true
			ct.statHops++
			ct.statEdges += hop.NumEdges()
		}
		idx := int32(len(ct.nodes))
		nd := ctNode{hop: hop, depth: int32(depth)}
		nd.dead = parent != nil && hop.FromRel != parent.ToRel
		if parent != nil && !nd.dead {
			// Identical (parent, child) hop pairs appear under every shared
			// prefix; the mirror-edge table depends only on the pair.
			k := pairKey{parent: parent, child: hop}
			br, ok := brCache[k]
			if !ok {
				br = reldb.BackRefs(parent, hop)
				brCache[k] = br
			}
			nd.backRef = br
		}
		if len(tn.terminal) > 0 {
			nd.terminal = make([]int32, len(tn.terminal))
			for i, pi := range tn.terminal {
				nd.terminal[i] = int32(pi)
			}
		}
		ct.nodes = append(ct.nodes, nd)
		if !nd.dead {
			if depth > ct.maxDepth {
				ct.maxDepth = depth
			}
			ct.posLen = growMax(ct.posLen, depth, hop.NumTo)
		}
		storeEdges := false
		for _, c := range tn.children {
			ci := build(c, hop, depth+1)
			ct.nodes[idx].children = append(ct.nodes[idx].children, ci)
			if ct.nodes[ci].backRef != nil && !ct.nodes[ci].dead {
				storeEdges = true
			}
		}
		if storeEdges {
			ct.nodes[idx].storeEdges = true
			ct.edgeLen = growMax(ct.edgeLen, depth, hop.NumEdges())
		}
		return idx
	}
	for _, c := range t.root.children {
		ct.roots = append(ct.roots, build(c, nil, 1))
	}
	return ct
}

func growMax(s []int, idx, val int) []int {
	for len(s) <= idx {
		s = append(s, 0)
	}
	if val > s[idx] {
		s[idx] = val
	}
	return s
}

// Stats reports the compiled plan's size: the number of distinct hop plans
// and the total tuple-level edges they index.
func (ct *CompiledTrie) Stats() (hops, edges int) { return ct.statHops, ct.statEdges }

// level is one depth's reusable frontier state.
type level struct {
	// pos maps a target ordinal to its index in frontier, -1 when absent.
	// It is restored to all -1 after each node finishes, by walking the
	// frontier — O(frontier), not O(relation).
	pos      []int32
	frontier []int32
	accF     []float64
	accB     []float64
}

// Scratch holds every mutable buffer one propagation needs. A Scratch
// belongs to one CompiledTrie and one goroutine at a time; reusing it
// across calls is what makes the fast path allocate only its three result
// arrays.
type Scratch struct {
	levels []level
	edgeF  [][]float64 // per depth: forward mass per edge of the storing node
	edgeB  [][]float64
	// keys and fbs pack every emitted neighborhood of the current
	// propagation back to back; spans[pi] locates path pi's window in them.
	keys  []reldb.TupleID
	fbs   []FB
	spans []span
	// sorted receives ascending's output; bits is its bitmap, all zero
	// between calls (the scan that reads a word clears it).
	sorted []int32
	bits   []uint64
}

// span is one path's window [lo, hi) of the packed emission buffers and its
// forward-mass total; hi == lo leaves the path's neighborhood empty.
type span struct {
	lo, hi int
	sum    float64
}

// NewScratch allocates a scratch sized for this trie's plans.
func (ct *CompiledTrie) NewScratch() *Scratch {
	s := &Scratch{
		levels: make([]level, ct.maxDepth+1),
		edgeF:  make([][]float64, ct.maxDepth+1),
		edgeB:  make([][]float64, ct.maxDepth+1),
		spans:  make([]span, len(ct.paths)),
	}
	for d := 1; d <= ct.maxDepth; d++ {
		if d < len(ct.posLen) && ct.posLen[d] > 0 {
			pos := make([]int32, ct.posLen[d])
			for i := range pos {
				pos[i] = -1
			}
			s.levels[d].pos = pos
		}
		if d < len(ct.edgeLen) && ct.edgeLen[d] > 0 {
			s.edgeF[d] = make([]float64, ct.edgeLen[d])
			s.edgeB[d] = make([]float64, ct.edgeLen[d])
		}
	}
	return s
}

// Propagate computes the neighborhoods of start along every path of the
// trie, equivalent to the depth-first definition within 1e-12. s must come
// from this trie's NewScratch (nil allocates a throwaway one). The result
// slice and its neighborhoods are freshly allocated — every neighborhood is
// a capacity-capped window of two arrays shared by the whole result, so
// appending to one never writes into another — and the scratch may be
// reused for the next call immediately.
func (ct *CompiledTrie) Propagate(start reldb.TupleID, s *Scratch) []SparseNeighborhood {
	out := make([]SparseNeighborhood, len(ct.paths))
	if len(ct.roots) == 0 {
		return out
	}
	startRel := ct.db.Tuple(start).Rel.Name
	ord := ct.db.Relation(startRel).OrdinalOf(start)
	if ord < 0 {
		return out
	}
	if s == nil {
		s = ct.NewScratch()
	}
	l0 := &s.levels[0]
	l0.frontier = append(l0.frontier[:0], int32(ord))
	l0.accF = append(l0.accF[:0], 1)
	l0.accB = append(l0.accB[:0], 1)
	s.keys, s.fbs = s.keys[:0], s.fbs[:0]
	clear(s.spans)
	for _, ri := range ct.roots {
		if ct.nodes[ri].hop.FromRel != startRel {
			continue
		}
		ct.run(ri, startRel, s)
	}
	keys, fbs := slices.Clone(s.keys), slices.Clone(s.fbs)
	for pi, sp := range s.spans {
		if sp.hi > sp.lo {
			out[pi] = SparseNeighborhood{
				Keys:   keys[sp.lo:sp.hi:sp.hi],
				FBs:    fbs[sp.lo:sp.hi:sp.hi],
				SumFwd: sp.sum,
			}
		}
	}
	return out
}

// run advances the parent frontier across one trie node's hop, emits
// terminal neighborhoods onto the scratch, recurses into children, and
// restores the scratch state it used.
func (ct *CompiledTrie) run(ni int32, startRel string, s *Scratch) {
	nd := &ct.nodes[ni]
	hop := nd.hop
	in := &s.levels[nd.depth-1]
	lv := &s.levels[nd.depth]
	rowPtr, col, rev := hop.RowPtr, hop.Col, hop.Rev
	br := nd.backRef
	var pEF, pEB []float64
	if br != nil {
		pEF, pEB = s.edgeF[nd.depth-1], s.edgeB[nd.depth-1]
	}
	var mEF, mEB []float64
	if nd.storeEdges {
		mEF, mEB = s.edgeF[nd.depth], s.edgeB[nd.depth]
	}
	pos := lv.pos
	frontier := lv.frontier[:0]
	accF, accB := lv.accF[:0], lv.accB[:0]
	for fi, t := range in.frontier {
		lo, hi := rowPtr[t], rowPtr[t+1]
		if lo == hi {
			continue // dead end: this branch's mass is lost, as in the DFS
		}
		F, B := in.accF[fi], in.accB[fi]
		d0 := float64(hi - lo)
		var Fx float64
		if br != nil {
			for g := lo; g < hi; g++ {
				if r := br[g]; r >= 0 {
					Fx += pEF[r]
				}
			}
		}
		share := (F - Fx) / d0
		for g := lo; g < hi; g++ {
			v := col[g]
			mF := share
			mB := B
			if br != nil {
				if r := br[g]; r >= 0 {
					if hi-lo > 1 {
						mF += (Fx - pEF[r]) / (d0 - 1)
					}
					mB -= pEB[r]
				} else if Fx != 0 && hi-lo > 1 {
					mF += Fx / (d0 - 1)
				}
			}
			if mF <= 0 {
				// Pure-backtrack edge (or its cancellation noise): no DFS
				// path instance traverses it.
				if mEF != nil {
					mEF[g], mEB[g] = 0, 0
				}
				continue
			}
			if mB < 0 {
				mB = 0
			}
			mB /= float64(rev[v])
			if mEF != nil {
				mEF[g], mEB[g] = mF, mB
			}
			if j := pos[v]; j >= 0 {
				accF[j] += mF
				accB[j] += mB
			} else {
				pos[v] = int32(len(frontier))
				frontier = append(frontier, v)
				accF = append(accF, mF)
				accB = append(accB, mB)
			}
		}
	}
	lv.frontier, lv.accF, lv.accB = frontier, accF, accB
	if len(frontier) == 0 {
		// Nothing reached: terminals keep their zero value (what the DFS's
		// empty map finalises to), children are inert, and neither pos nor
		// the edge buffer holds anything but -1s and zeroes.
		return
	}
	if len(nd.terminal) > 0 {
		var sp span
		built := false
		for _, pi := range nd.terminal {
			if ct.paths[pi].Start != startRel {
				continue // a path from another relation stays empty
			}
			if !built {
				sp = s.emit(lv, hop)
				built = true
			}
			s.spans[pi] = sp // paths ending here share one window
		}
	}
	for _, ci := range nd.children {
		if ct.nodes[ci].dead {
			continue
		}
		ct.run(ci, startRel, s)
	}
	// Restore for the next sibling subtree: pos back to -1 and, if children
	// read per-edge masses, those entries back to zero.
	for _, v := range frontier {
		pos[v] = -1
	}
	if mEF != nil {
		for _, t := range in.frontier {
			for g := rowPtr[t]; g < rowPtr[t+1]; g++ {
				mEF[g], mEB[g] = 0, 0
			}
		}
	}
}

// emit appends the node's frontier, in ascending key order, to the packed
// emission buffers and returns its window.
func (s *Scratch) emit(lv *level, hop *reldb.HopCSR) span {
	lo := len(s.keys)
	hi := lo + len(lv.frontier)
	s.keys = slices.Grow(s.keys, hi-lo)[:hi]
	s.fbs = slices.Grow(s.fbs, hi-lo)[:hi]
	keys, fbs := s.keys[lo:hi], s.fbs[lo:hi]
	var sum float64
	for i, v := range s.ascending(lv.frontier) {
		j := lv.pos[v]
		keys[i] = hop.ToIDs[v]
		fbs[i] = FB{Fwd: lv.accF[j], Bwd: lv.accB[j]}
		sum += lv.accF[j]
	}
	return span{lo: lo, hi: hi, sum: sum}
}

// bitmapMinLen and bitmapWordsPerOrdinal gate ascending's bitmap scan: a
// frontier of at least bitmapMinLen ordinals whose [min, max] range spans
// at most bitmapWordsPerOrdinal 64-bit words per ordinal is ordered by
// setting and scanning bits, O(n + range/64); anything smaller or sparser
// is sorted, where the comparison sort is the cheaper of the two.
const (
	bitmapMinLen          = 32
	bitmapWordsPerOrdinal = 4
)

// ascending returns the distinct ordinals of ords in ascending order, in a
// buffer owned by the scratch and valid until the next call.
func (s *Scratch) ascending(ords []int32) []int32 {
	if n := len(ords); n >= bitmapMinLen {
		lo, hi := ords[0], ords[0]
		for _, v := range ords[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		base := lo &^ 63
		if words := int(hi-base)>>6 + 1; words <= bitmapWordsPerOrdinal*n {
			if cap(s.bits) < words {
				s.bits = make([]uint64, words)
			}
			bm := s.bits[:words]
			for _, v := range ords {
				d := v - base
				bm[d>>6] |= 1 << (uint(d) & 63)
			}
			s.sorted = slices.Grow(s.sorted[:0], n)[:n]
			k := 0
			for w, word := range bm {
				if word == 0 {
					continue
				}
				bm[w] = 0
				for word != 0 {
					s.sorted[k] = base + int32(w<<6+bits.TrailingZeros64(word))
					word &= word - 1
					k++
				}
			}
			return s.sorted
		}
	}
	s.sorted = append(s.sorted[:0], ords...)
	slices.Sort(s.sorted)
	return s.sorted
}
