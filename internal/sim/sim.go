// Package sim implements DISTINCT's two complementary similarity measures
// between references (Sections 2.3 and 2.4 of the paper):
//
//   - set resemblance of neighbor tuples — a connection-strength-weighted
//     Jaccard coefficient over the two references' neighborhoods along one
//     join path (Definition 2), capturing context similarity; and
//   - random walk probability — the probability of walking from one
//     reference to the other along a join path and back along its reverse,
//     capturing linkage strength.
//
// Both measures are computed per join path; the core package combines the
// per-path values with learned (or uniform) weights.
//
// One kernel computes both measures: BlockIndex.Row (batch.go) scores every
// pair of a block of references, each a packed prop.Neighborhoods value
// whose per-path views are sorted parallel slices or parent groups over a
// fan-out tail, through an inverted index over the tuples, or along a
// grouped path the parents, they share. A single pair is scored as a
// two-member block (Extractor.Pair). The test oracle (oracle.RefKernel,
// internal/oracle) computes the same three quantities the naive way,
// child by child through a hash map, and the property and fuzz tests hold
// the kernel to it: bit for bit along flat paths, within 1e-12 relative
// along grouped ones.
package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"distinct/internal/obs"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// Extractor computes and stores per-reference neighborhoods along the join
// paths of one compiled plan (prop.CompiledTrie), and derives per-pair
// feature vectors from them, one entry per path in the plan's path order.
// Each reference's propagation runs once no matter how many pairs it
// appears in; this is what makes all-pairs feature computation affordable
// (§4.2). The plan is a snapshot of the database it was compiled over, so
// a reference inserted after the compile has empty neighborhoods.
//
// The store is write-once: one slot per tuple of the plan's snapshot, each
// a pointer to one immutable prop.Neighborhoods value, filled lazily by the
// first propagation that publishes into it (CompareAndSwap from nil) and
// never changed afterwards. Readers take no
// lock, so Neighborhoods and NeighborhoodsCtx may be called from
// concurrent goroutines even for unstored references; concurrent misses of
// the same reference resolve to the first result published.
//
// References that share a prop.CompiledTrie.ShareKey (in DBLP: co-authors
// of one paper) share the neighborhoods of the paths that never bounce back
// over the first hop. The first result published per key is kept as that
// key's donor, in a second write-once slot array indexed by the key; every
// later propagation with the key points at the donor for those paths
// instead of walking and storing them again.
type Extractor struct {
	// plan is shared read-only by every worker. Each propagation borrows a
	// scratch from the pool, so steady-state propagation does not allocate
	// beyond the neighborhoods it returns.
	plan    *prop.CompiledTrie
	scratch *sync.Pool

	// batchPool pools BatchScratch instances for the block kernel, sized to
	// the plan's tuple space so the dense tuple array never grows on the
	// warm path; indexPool pools the block kernel's postings indexes.
	//
	// The pools are separate objects: the runtime keeps a used pool
	// reachable until the second GC after its last use, and a pool held
	// by value would keep the whole extractor alive with it.
	batchPool *sync.Pool
	indexPool *sync.Pool

	// nbs[r] holds reference r's neighborhoods, one slot per TupleID below
	// the plan's NumTuples; donors[k] holds share key k's donor, one slot
	// per key below the plan's NumShareKeys. A start outside the snapshot
	// has no slot: the plan hands it its one empty value.
	nbs    []atomic.Pointer[prop.Neighborhoods]
	donors []atomic.Pointer[prop.Neighborhoods]

	// Metric handles resolved once by New; nil handles (a nil registry)
	// make every update a no-op nil check.
	prefetchStage      *obs.Stage
	prefetchRequested  *obs.Counter
	prefetchPropagated *obs.Counter
	prefetchShared     *obs.Counter
}

// New creates an extractor over a compiled plan, reporting to reg (nil
// disables): sim.prefetch_requested / sim.prefetch_propagated describe
// NeighborhoodsCtx blocks, sim.prefetch_shared counts the propagations
// whose shared paths came from a donor, and the "prefetch" stage records
// the propagation work itself.
func New(plan *prop.CompiledTrie, reg *obs.Registry) *Extractor {
	n := plan.NumTuples()
	e := &Extractor{
		plan:               plan,
		scratch:            &sync.Pool{New: func() any { return plan.NewScratch() }},
		batchPool:          new(sync.Pool),
		indexPool:          new(sync.Pool),
		nbs:                make([]atomic.Pointer[prop.Neighborhoods], n),
		donors:             make([]atomic.Pointer[prop.Neighborhoods], plan.NumShareKeys()),
		prefetchStage:      reg.Stage("prefetch"),
		prefetchRequested:  reg.Counter("sim.prefetch_requested"),
		prefetchPropagated: reg.Counter("sim.prefetch_propagated"),
		prefetchShared:     reg.Counter("sim.prefetch_shared"),
	}
	return e
}

// NewExtractor compiles paths over db (GOMAXPROCS workers) and returns an
// extractor over the plan with metrics off.
func NewExtractor(db *reldb.Database, paths []reldb.JoinPath) *Extractor {
	return New(prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(paths), 0), nil)
}

// propagate computes one reference's neighborhoods on the compiled plan,
// borrowing a scratch from the pool; donor is optional (see
// prop.CompiledTrie.Propagate).
func (e *Extractor) propagate(r reldb.TupleID, donor *prop.Neighborhoods) *prop.Neighborhoods {
	s := e.scratch.Get().(*prop.Scratch)
	nbs := e.plan.Propagate(r, s, donor)
	e.scratch.Put(s)
	return nbs
}

// load returns r's published neighborhoods, nil when none are yet. A start
// outside the snapshot gets the plan's empty value, which propagating it
// returns without walking or allocating.
func (e *Extractor) load(r reldb.TupleID) *prop.Neighborhoods {
	if r < 0 || int(r) >= len(e.nbs) {
		return e.plan.Propagate(r, nil, nil)
	}
	return e.nbs[r].Load()
}

// donor returns share key k's donor, nil when there is none.
func (e *Extractor) donor(k int) *prop.Neighborhoods {
	if k < 0 {
		return nil
	}
	return e.donors[k].Load()
}

// publish stores nbs as r's neighborhoods and as share key k's donor, each
// unless a result is already there, and returns r's stored result. r must
// lie inside the snapshot.
func (e *Extractor) publish(r reldb.TupleID, k int, nbs *prop.Neighborhoods) *prop.Neighborhoods {
	if k >= 0 {
		e.donors[k].CompareAndSwap(nil, nbs)
	}
	if !e.nbs[r].CompareAndSwap(nil, nbs) {
		return e.nbs[r].Load() // a lost race shares the first stored result
	}
	return nbs
}

// Neighborhoods returns the reference's neighborhood along every path,
// computing and storing them on first use. All paths are walked in one
// frontier sweep over the compiled CSR plan (see prop.CompiledTrie) and
// packed into one value, the shared paths read from the reference's donor
// when one is stored. Safe for concurrent use; a block of references is
// served by NeighborhoodsCtx.
func (e *Extractor) Neighborhoods(r reldb.TupleID) *prop.Neighborhoods {
	if nbs := e.load(r); nbs != nil {
		return nbs
	}
	k := e.plan.ShareKey(r)
	return e.publish(r, k, e.propagate(r, e.donor(k)))
}

// BatchScratch borrows a block-kernel scratch from the extractor's pool,
// sized to the plan's tuple space. Pair with PutBatchScratch.
func (e *Extractor) BatchScratch() *BatchScratch {
	if s, ok := e.batchPool.Get().(*BatchScratch); ok {
		return s
	}
	return NewBatchScratch(e.plan.NumTuples())
}

// PutBatchScratch returns a scratch to the pool for reuse.
func (e *Extractor) PutBatchScratch(s *BatchScratch) { e.batchPool.Put(s) }

// IndexBlock borrows a pooled BlockIndex and builds it over the block nbs
// along the paths use selects (every path when use is nil); see
// BlockIndex.Build. Pair with PutBlockIndex once every row is done.
func (e *Extractor) IndexBlock(nbs []*prop.Neighborhoods, use func(p int) bool) *BlockIndex {
	x, ok := e.indexPool.Get().(*BlockIndex)
	if !ok {
		x = &BlockIndex{}
	}
	s := e.BatchScratch()
	x.Build(s, nbs, use)
	e.PutBatchScratch(s)
	return x
}

// PutBlockIndex returns an index to the pool for reuse.
func (e *Extractor) PutBlockIndex(x *BlockIndex) { e.indexPool.Put(x) }

// Pair scores one pair of references along every path: a and b are their
// neighborhoods, indexed as a two-member block and read through Row, so a
// single pair takes the kernel every block takes. It returns one Trip per
// path, with a as the row member, zero where the two share nothing. out is
// reused when large enough (pass nil to allocate); with a reused out and
// warm pools, Pair does not allocate.
func (e *Extractor) Pair(a, b *prop.Neighborhoods, out []Trip) []Trip {
	x := e.IndexBlock([]*prop.Neighborhoods{a, b}, nil)
	s := e.BatchScratch()
	out = grow(out, a.NumPaths())
	for p := range out {
		out[p] = Trip{}
		if _, t := x.Row(s, p, 0); len(t) > 0 {
			out[p] = t[0]
		}
	}
	e.PutBatchScratch(s)
	e.PutBlockIndex(x)
	return out
}

// Features returns the two per-path feature vectors of the pair whose
// neighborhoods are a and b: set resemblance and the symmetrised random
// walk probability.
func (e *Extractor) Features(a, b *prop.Neighborhoods) (resem, walk []float64) {
	trips := e.Pair(a, b, nil)
	resem, walk = make([]float64, len(trips)), make([]float64, len(trips))
	for p, t := range trips {
		resem[p], walk[p] = t.Resem, (t.WalkAB+t.WalkBA)/2
	}
	return resem, walk
}
