package prop

import (
	"context"
	"math"
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
// A node whose hop is not a fan-out tail emits one entry per tuple of its
// frontier, its ordinals sorted with slices.Sort. Such frontiers are
// small: the wide ones end in fan-out tails, which emit grouped.
//
// A node whose hop is a fan-out tail (groups.go) emits the grouped form
// instead, straight from the parent frontier (emitGroups): per parent with
// edges, one group record carrying the FB the edge loop below would give
// every child whose mirror edge carried no mass, and an exception record
// for each child whose FB comes out different, the walk's own bounce
// origin among them. Every float is computed by the edge loop's
// expressions, so the children the records reach carry the flat form's
// FBs bit for bit. SumFwd sums them in key order, read back through
// AppendSegments and ordered by a bitmap over the window's key range
// (Scratch.sumFwd). A leaf tail builds no frontier at all.
//
// Every path's records are packed onto the scratch during the walk, paths
// ending at one node sharing theirs, and copied out once per reference
// into one []TupleID and one []FB. The value returned (Neighborhoods,
// packed.go) indexes them with a 16-byte cell per path that reached
// something, behind a bitmap over the paths; an empty path costs a bit.
// The value and an index of up to 64 cells are one allocation, so a
// propagation allocates three objects, and a path's SparseNeighborhood is
// a view the value hands out on request.
//
// # Shared first-hop subtrees
//
// When the trie has a single root hop and the start's row in it holds
// exactly one edge (in DBLP: a reference's hop to its paper), the depth-1
// frontier is that edge's target v with F = 1 and B = 1/rev(v), the same
// floats for every start that reaches v. A child that does not mirror the
// root hop (backRef == nil) reads only that frontier, never the per-edge
// masses that carry the start's identity, so its whole subtree performs the
// same float operations in the same order for every such start. Those
// paths, plus the root's own terminals, are the trie's shared paths.
// Propagate given a donor — the result of an earlier start with the same
// ShareKey — skips their subtrees and stores neither records nor cells for
// them: the value points at the donor's owner and reads them there,
// bit-identical to walking them again.

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
	// tail: the hop is a fan-out tail (groups.go), so the node's terminals
	// are emitted as parent groups, straight from the parent frontier.
	tail bool
	// leaf: no live child reads the node's frontier.
	leaf bool
}

// CompiledTrie is a Trie compiled into CSR hop plans over one database; it
// owns the plans and is a snapshot of the database at compile time. It
// keeps no reference to the database: a start is resolved among the
// tuples its root hops captured (reldb.HopCSR.FromIDs), so a tuple
// inserted after the compile propagates to nothing. It is immutable after
// compilation and shared read-only across goroutines; all per-propagation
// state lives in a Scratch.
type CompiledTrie struct {
	paths []reldb.JoinPath
	nodes []ctNode
	roots []int32
	// shared lists the paths a donor supplies (see ShareKey); nil unless
	// the trie has exactly one root hop.
	shared []int32
	// desc describes every path to the values Propagate returns; empty is
	// the one value of a start outside the snapshot.
	desc  []pathDesc
	empty *Neighborhoods

	maxDepth int
	posLen   []int // per depth: ordinal-index size (max target relation size)
	edgeLen  []int // per depth: edge-buffer size (max edges of storing nodes)
	// tailSpan bounds a grouped window's key range, counted from the word
	// its lowest key falls in: the dense Fwd array's size (Scratch.sumFwd).
	tailSpan int

	statHops, statEdges int
	numTuples           int // db.NumTuples() at compile time
}

// CompileTrieCtx compiles the trie against db, compiling each distinct hop
// plan exactly once with reldb.CompileHop. The trie owns its plans: they
// are a snapshot of db at compile time, and a later Insert leaves them as
// they are. The per-hop compiles are farmed over `workers` goroutines (0
// means GOMAXPROCS), observing ctx between hops; a serial pass then
// compiles whatever the parallel pass skipped, so a cancelled context only
// stops the parallel work and the returned trie is always complete and
// correct. A hop whose compile panicked is compiled again by the serial
// pass, which re-raises the panic on the caller's goroutine.
func CompileTrieCtx(ctx context.Context, db *reldb.Database, t *Trie, workers int) *CompiledTrie {
	ids := distinctHops(db, t)
	plans := make([]*reldb.HopCSR, len(ids))
	_ = fault.ParallelFor(ctx, len(ids), workers, func(i int) error {
		plans[i] = reldb.CompileHop(db, ids[i].from, ids[i].step)
		return nil
	})
	hops := make(map[hopIdent]*reldb.HopCSR, len(ids))
	for i, id := range ids {
		if plans[i] == nil {
			plans[i] = reldb.CompileHop(db, id.from, id.step)
		}
		hops[id] = plans[i]
	}
	return compileTrie(db, t, hops)
}

// hopIdent identifies one distinct hop plan: a step applied from a source
// relation. The departing relation is part of it because a malformed step
// compiles differently depending on where it is asked to depart from.
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

// compileTrie assembles the trie over hops, the plan of every distinct hop
// in t.
func compileTrie(db *reldb.Database, t *Trie, hops map[hopIdent]*reldb.HopCSR) *CompiledTrie {
	ct := &CompiledTrie{paths: t.paths, numTuples: db.NumTuples()}
	for _, hop := range hops {
		ct.statHops++
		ct.statEdges += hop.NumEdges()
	}
	type pairKey struct{ parent, child *reldb.HopCSR }
	brCache := make(map[pairKey][]int32)
	tails := make(map[*reldb.HopCSR]bool, len(hops))
	for _, hop := range hops {
		tails[hop] = isTail(hop)
	}
	var build func(tn *trieNode, parent *reldb.HopCSR, depth int) int32
	build = func(tn *trieNode, parent *reldb.HopCSR, depth int) int32 {
		hop := hops[hopIdent{from: tn.step.From(db.Schema), step: tn.step}]
		idx := int32(len(ct.nodes))
		nd := ctNode{hop: hop, depth: int32(depth), tail: tails[hop], leaf: true}
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
			if !ct.nodes[ci].dead {
				ct.nodes[idx].leaf = false
				storeEdges = storeEdges || ct.nodes[ci].backRef != nil
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
	if len(ct.roots) == 1 {
		root := &ct.nodes[ct.roots[0]]
		ct.shared = slices.Clone(root.terminal)
		for _, ci := range root.children {
			if ct.nodes[ci].backRef == nil {
				ct.shared = ct.appendTerminals(ct.shared, ci)
			}
		}
	}
	ct.desc = make([]pathDesc, len(ct.paths))
	for _, nd := range ct.nodes {
		if nd.tail && !nd.dead {
			for _, pi := range nd.terminal {
				ct.desc[pi].tail = nd.hop
			}
			if ids := nd.hop.ToIDs; len(nd.terminal) > 0 && len(ids) > 0 {
				ct.tailSpan = max(ct.tailSpan, int(ids[len(ids)-1]-(ids[0]&^63))+1)
			}
		}
	}
	for _, pi := range ct.shared {
		ct.desc[pi].shared = true
	}
	ct.empty = pack(ct.desc, nil, nil, nil, nil)
	return ct
}

// appendTerminals appends the path indexes ending in node ni's subtree.
func (ct *CompiledTrie) appendTerminals(dst []int32, ni int32) []int32 {
	dst = append(dst, ct.nodes[ni].terminal...)
	for _, ci := range ct.nodes[ni].children {
		dst = ct.appendTerminals(dst, ci)
	}
	return dst
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

// NumTuples reports the database's tuple count at compile time: every
// TupleID the trie emits is below it.
func (ct *CompiledTrie) NumTuples() int { return ct.numTuples }

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
// across calls is what makes the fast path allocate only the value it
// returns and its two record arrays.
type Scratch struct {
	levels []level
	edgeF  [][]float64 // per depth: forward mass per edge of the storing node
	edgeB  [][]float64
	// keys and fbs pack every emitted neighborhood of the current
	// propagation back to back; spans[pi] locates path pi's records in
	// them, lo == hi leaving the path empty.
	keys  []reldb.TupleID
	fbs   []FB
	spans []cell
	// segs, fwd and words sum a grouped window's Fwd in key order
	// (sumFwd); words is all zero between windows.
	segs  []Segment
	fwd   []float64
	words []uint64
	// sorted receives ascending's output.
	sorted []int32
}

// NewScratch allocates a scratch sized for this trie's plans.
func (ct *CompiledTrie) NewScratch() *Scratch {
	s := &Scratch{
		levels: make([]level, ct.maxDepth+1),
		edgeF:  make([][]float64, ct.maxDepth+1),
		edgeB:  make([][]float64, ct.maxDepth+1),
		spans:  make([]cell, len(ct.paths)),
		fwd:    make([]float64, ct.tailSpan),
		words:  make([]uint64, (ct.tailSpan+63)>>6),
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

// ShareKey returns the key under which starts share their shared paths'
// neighborhoods: the tuple start reaches over the trie's root hop, given as
// its ordinal among the hop's target tuples, in [0, NumShareKeys()). It
// returns -1 when the trie has several root hops, when start was not a
// tuple of the root hop's relation at compile time, or when start's row
// does not hold exactly one edge.
func (ct *CompiledTrie) ShareKey(start reldb.TupleID) int {
	if ct.shared == nil {
		return -1
	}
	return ct.shareKey(ct.nodes[ct.roots[0]].hop.FromOrdinal(start))
}

// NumShareKeys reports how many distinct share keys there can be: the
// root hop's target tuples at compile time, 0 when no start has a key.
func (ct *CompiledTrie) NumShareKeys() int {
	if ct.shared == nil {
		return 0
	}
	return len(ct.nodes[ct.roots[0]].hop.ToIDs)
}

// shareKey is ShareKey for the start at ordinal ord of the single root
// hop's source relation.
func (ct *CompiledTrie) shareKey(ord int) int {
	if ct.shared == nil || ord < 0 {
		return -1
	}
	hop := ct.nodes[ct.roots[0]].hop
	if hop.RowPtr[ord+1]-hop.RowPtr[ord] != 1 {
		return -1
	}
	return int(hop.Col[hop.RowPtr[ord]])
}

// locate resolves start inside the snapshot: the source relation and
// ordinal of the first root hop that captured it, ord -1 when none did.
func (ct *CompiledTrie) locate(start reldb.TupleID) (rel string, ord int) {
	for _, ri := range ct.roots {
		hop := ct.nodes[ri].hop
		if ord := hop.FromOrdinal(start); ord >= 0 {
			return hop.FromRel, ord
		}
	}
	return "", -1
}

// Propagate computes the neighborhoods of start along every path of the
// trie, equivalent to the depth-first definition within 1e-12, packed into
// one freshly allocated value (see Neighborhoods). s must come from this
// trie's NewScratch (nil allocates a throwaway one); it may be reused for
// the next call immediately.
//
// donor is optional: the result of an earlier start with the same ShareKey
// as start. With a donor the walk skips the shared paths' subtrees and the
// result reads those paths from the donor's owner, bit-identical to
// propagating them afresh. A donor for a start whose ShareKey is -1 is
// ignored. Every start that no root hop captured at compile time — a later
// insert, or a tuple of a relation no path starts from — gets the trie's
// one empty value, and so does a donor-free start that reaches nothing.
func (ct *CompiledTrie) Propagate(start reldb.TupleID, s *Scratch, donor *Neighborhoods) *Neighborhoods {
	startRel, ord := ct.locate(start)
	if ord < 0 {
		return ct.empty
	}
	if donor != nil && ct.shareKey(ord) < 0 {
		donor = nil
	}
	if donor != nil && donor.donor != nil {
		donor = donor.donor // borrow from the owner, never from a borrower
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
		ct.run(ri, startRel, s, donor != nil)
	}
	if donor == nil && len(s.keys) == 0 {
		return ct.empty
	}
	return pack(ct.desc, s.spans, s.keys, s.fbs, donor)
}

// run advances the parent frontier across one trie node's hop, emits
// terminal neighborhoods onto the scratch, recurses into children, and
// restores the scratch state it used. borrow (root only) skips the shared
// paths: the node's own terminals and every child that does not bounce.
func (ct *CompiledTrie) run(ni int32, startRel string, s *Scratch, borrow bool) {
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
	if nd.tail && nd.leaf {
		// Nothing reads a leaf tail's frontier: its terminals are groups
		// over the parent frontier.
		if !borrow {
			ct.emitTerminals(nd, startRel, s, in, lv, pEF, pEB)
		}
		return
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
	if !borrow {
		ct.emitTerminals(nd, startRel, s, in, lv, pEF, pEB)
	}
	for _, ci := range nd.children {
		if c := &ct.nodes[ci]; c.dead || borrow && c.backRef == nil {
			continue
		}
		ct.run(ci, startRel, s, false)
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

// emitTerminals emits node nd's neighborhood once, grouped over the parent
// frontier in when nd is a tail and flat from its own frontier lv
// otherwise, and hands its records to every path ending at nd.
func (ct *CompiledTrie) emitTerminals(nd *ctNode, startRel string, s *Scratch, in, lv *level, pEF, pEB []float64) {
	var sp cell
	built := false
	for _, pi := range nd.terminal {
		if ct.paths[pi].Start != startRel {
			continue // a path from another relation stays empty
		}
		if !built {
			if nd.tail {
				sp = s.emitGroups(nd, in, pEF, pEB)
			} else {
				sp = s.emit(lv, nd.hop)
			}
			built = true
		}
		s.spans[pi] = sp // paths ending here share their records
	}
}

// emitGroups appends tail node nd's neighborhood, in grouped form, to the
// packed emission buffers and returns its record range. in is the parent
// frontier and pEF, pEB its per-edge masses when nd can bounce. Every
// float is computed by the expressions run's edge loop uses, so a group's
// FB and each exception's are the bits that loop gives the children.
func (s *Scratch) emitGroups(nd *ctNode, in *level, pEF, pEB []float64) cell {
	hop, br := nd.hop, nd.backRef
	rowPtr := hop.RowPtr
	lo := len(s.keys)
	keys, fbs := s.keys, s.fbs
	reached := 0
	for fi, t := range in.frontier {
		rlo, rhi := rowPtr[t], rowPtr[t+1]
		if rlo == rhi {
			continue // dead end
		}
		F, B := in.accF[fi], in.accB[fi]
		d0 := float64(rhi - rlo)
		var Fx float64
		if br != nil {
			for g := rlo; g < rhi; g++ {
				if r := br[g]; r >= 0 {
					Fx += pEF[r]
				}
			}
		}
		share := (F - Fx) / d0
		// The pair of every child whose mirror edge carried no mass: B
		// divided by rev(v) = 1, which is B exactly.
		group := FB{Fwd: share, Bwd: B}
		if Fx != 0 && rhi-rlo > 1 {
			group.Fwd += Fx / (d0 - 1)
		}
		if group.Fwd <= 0 {
			group = FB{}
		}
		n := 0
		if group.Fwd > 0 {
			n = int(rhi - rlo)
		}
		glo := len(keys)
		keys, fbs = append(keys, reldb.TupleID(t)), append(fbs, group)
		if br != nil {
			for g := rlo; g < rhi; g++ {
				r := br[g]
				if r < 0 || pEF[r] == 0 && pEB[r] == 0 {
					continue
				}
				fb := FB{Fwd: share}
				if rhi-rlo > 1 {
					fb.Fwd += (Fx - pEF[r]) / (d0 - 1)
				}
				if fb.Fwd > 0 {
					if fb.Bwd = B - pEB[r]; fb.Bwd < 0 {
						fb.Bwd = 0
					}
				} else {
					fb = FB{}
				}
				if math.Float64bits(fb.Fwd) == math.Float64bits(group.Fwd) &&
					math.Float64bits(fb.Bwd) == math.Float64bits(group.Bwd) {
					continue
				}
				keys, fbs = append(keys, ^reldb.TupleID(g-rlo)), append(fbs, fb)
				if group.Fwd > 0 && fb.Fwd == 0 {
					n--
				} else if group.Fwd == 0 && fb.Fwd > 0 {
					n++
				}
			}
		}
		if n == 0 {
			keys, fbs = keys[:glo], fbs[:glo] // the group reaches nothing
		}
		reached += n
	}
	s.keys, s.fbs = keys, fbs
	if reached == 0 {
		return cell{}
	}
	hi := len(keys)
	nb := SparseNeighborhood{Keys: keys[lo:hi], FBs: fbs[lo:hi], Tail: hop}
	return cell{lo: uint32(lo), hi: uint32(hi), sum: s.sumFwd(&nb)}
}

// sumFwd returns Σ Fwd over the neighbors of nb, a grouped window that
// reaches something, accumulated in ascending key order as the flat form
// accumulates it. Its segments come group by group, so each reached
// child's Fwd goes into the dense array at the child's offset in the
// window's key range and sets that offset's bit; a scan of the bitmap's
// words then sums them in key order and leaves the bitmap all zero.
func (s *Scratch) sumFwd(nb *SparseNeighborhood) float64 {
	segs := nb.AppendSegments(s.segs[:0])
	s.segs = segs
	lo, hi := segs[0].Keys[0], segs[0].Keys[len(segs[0].Keys)-1]
	for _, sg := range segs[1:] {
		lo, hi = min(lo, sg.Keys[0]), max(hi, sg.Keys[len(sg.Keys)-1])
	}
	base := lo &^ 63
	fwd, words := s.fwd, s.words[:(hi-base)>>6+1]
	for _, sg := range segs {
		for k, t := range sg.Keys {
			d := t - base
			fwd[d] = sg.Shared.Fwd
			if sg.FBs != nil {
				fwd[d] = sg.FBs[k].Fwd
			}
			words[d>>6] |= 1 << (d & 63)
		}
	}
	var sum float64
	for w, word := range words {
		if word == 0 {
			continue
		}
		words[w] = 0
		for ; word != 0; word &= word - 1 {
			sum += fwd[w<<6+bits.TrailingZeros64(word)]
		}
	}
	return sum
}

// emit appends the node's frontier, in ascending key order, to the packed
// emission buffers and returns its record range.
func (s *Scratch) emit(lv *level, hop *reldb.HopCSR) cell {
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
	return cell{lo: uint32(lo), hi: uint32(hi), sum: sum}
}

// ascending returns the distinct ordinals of ords in ascending order, in a
// buffer owned by the scratch and valid until the next call.
func (s *Scratch) ascending(ords []int32) []int32 {
	s.sorted = append(s.sorted[:0], ords...)
	slices.Sort(s.sorted)
	return s.sorted
}
