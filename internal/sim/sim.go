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
// pair of a block of prop.SparseNeighborhood values — sorted parallel
// slices, or parent groups over a fan-out tail — through an inverted index
// over the tuples they share. A single
// pair is scored as a two-member block (Extractor.Pair). The package's test
// oracle (refKernel in oracle_test.go) computes the same three quantities
// the naive way, through a hash map, and the property and fuzz tests hold
// the kernel to it bit for bit.
package sim

import (
	"context"
	"sync"

	"distinct/internal/obs"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// Extractor computes and caches per-reference neighborhoods along the join
// paths of one compiled plan (prop.CompiledTrie), and derives per-pair
// feature vectors from them, one entry per path in the plan's path order.
// Each reference's propagation runs once no matter how many pairs it
// appears in; this is what makes all-pairs feature computation affordable
// (§4.2). Neighborhoods are cached in sparse form: built once, read many
// times. The plan is a snapshot of the database it was compiled over, so a
// reference inserted after the compile has empty neighborhoods.
//
// The cache is guarded by a read-write mutex, so Neighborhoods (and the
// vector methods built on it) may be called from concurrent goroutines
// even for uncached references; concurrent misses of the same reference
// deduplicate to the first result stored.
//
// References that share a prop.CompiledTrie.ShareKey (in DBLP: co-authors
// of one paper) share the neighborhoods of the paths that never bounce back
// over the first hop. The first result stored per key is kept as that
// key's donor, next to the cache and under the same lock; every later
// propagation with the key borrows the donor's shared neighborhoods
// instead of walking and storing them again.
type Extractor struct {
	// plan is shared read-only by every worker. Each propagation borrows a
	// scratch from the pool, so steady-state propagation does not allocate
	// beyond the neighborhoods it returns.
	plan    *prop.CompiledTrie
	scratch sync.Pool

	// batchPool pools BatchScratch instances for the block kernel, sized to
	// the plan's tuple space so the dense tuple array never grows on the
	// warm path; indexPool pools the block kernel's postings indexes.
	batchPool sync.Pool
	indexPool sync.Pool

	mu     sync.RWMutex
	cache  map[reldb.TupleID][]prop.SparseNeighborhood
	donors map[reldb.TupleID][]prop.SparseNeighborhood // by share key

	// Metric handles resolved once by New; nil handles (a nil registry)
	// make every update a no-op nil check, keeping the cache's hot path
	// free of registry lookups.
	prefetchStage      *obs.Stage
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	prefetchRequested  *obs.Counter
	prefetchDeduped    *obs.Counter
	prefetchPropagated *obs.Counter
	prefetchShared     *obs.Counter
}

// New creates an extractor over a compiled plan, reporting to reg (nil
// disables): sim.cache_hits / sim.cache_misses count Neighborhoods
// lookups, sim.prefetch_requested / sim.prefetch_deduped /
// sim.prefetch_propagated describe Prefetch batches, sim.prefetch_shared
// counts the prefetched references whose shared paths came from a donor,
// and the "prefetch" stage records the propagation work itself.
func New(plan *prop.CompiledTrie, reg *obs.Registry) *Extractor {
	e := &Extractor{
		plan:               plan,
		cache:              make(map[reldb.TupleID][]prop.SparseNeighborhood),
		donors:             make(map[reldb.TupleID][]prop.SparseNeighborhood),
		prefetchStage:      reg.Stage("prefetch"),
		cacheHits:          reg.Counter("sim.cache_hits"),
		cacheMisses:        reg.Counter("sim.cache_misses"),
		prefetchRequested:  reg.Counter("sim.prefetch_requested"),
		prefetchDeduped:    reg.Counter("sim.prefetch_deduped"),
		prefetchPropagated: reg.Counter("sim.prefetch_propagated"),
		prefetchShared:     reg.Counter("sim.prefetch_shared"),
	}
	e.scratch.New = func() any { return plan.NewScratch() }
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
func (e *Extractor) propagate(r reldb.TupleID, donor []prop.SparseNeighborhood) []prop.SparseNeighborhood {
	s := e.scratch.Get().(*prop.Scratch)
	nbs := e.plan.Propagate(r, s, donor)
	e.scratch.Put(s)
	return nbs
}

// donor returns the stored donor for share key k, nil when there is none.
func (e *Extractor) donor(k reldb.TupleID) []prop.SparseNeighborhood {
	if k < 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.donors[k]
}

// store caches nbs as r's neighborhoods unless r is already cached, and
// records them as share key k's donor unless k has one. It returns the
// cached result. The caller holds e.mu for writing.
func (e *Extractor) store(r, k reldb.TupleID, nbs []prop.SparseNeighborhood) []prop.SparseNeighborhood {
	if prev, ok := e.cache[r]; ok {
		return prev
	}
	e.cache[r] = nbs
	if _, ok := e.donors[k]; k >= 0 && !ok {
		e.donors[k] = nbs
	}
	return nbs
}

// Neighborhoods returns the reference's neighborhood along every path,
// computing and caching them on first use. All paths are walked in one
// frontier sweep over the compiled CSR plan (see prop.CompiledTrie) and
// emitted directly in sparse form, the shared paths borrowed from the
// reference's donor when one is stored. Safe for concurrent use.
func (e *Extractor) Neighborhoods(r reldb.TupleID) []prop.SparseNeighborhood {
	e.mu.RLock()
	nbs, ok := e.cache[r]
	e.mu.RUnlock()
	if ok {
		e.cacheHits.Inc()
		return nbs
	}
	e.cacheMisses.Inc()
	k := e.plan.ShareKey(r)
	nbs = e.propagate(r, e.donor(k))
	e.mu.Lock()
	nbs = e.store(r, k, nbs) // a lost race shares the first stored result
	e.mu.Unlock()
	return nbs
}

// NeighborhoodsAll returns Neighborhoods(r) for every reference in refs,
// resolving all cached entries under one lock acquisition instead of one
// per reference. out is reused when large enough (pass nil to allocate).
// References missing from the cache fall back to Neighborhoods, so the
// result is always complete; after a Prefetch of refs the fallback never
// runs. Cache metrics count one hit per cached reference — the same as the
// per-reference calls the batch replaces.
func (e *Extractor) NeighborhoodsAll(refs []reldb.TupleID, out [][]prop.SparseNeighborhood) [][]prop.SparseNeighborhood {
	if cap(out) < len(refs) {
		out = make([][]prop.SparseNeighborhood, len(refs))
	} else {
		out = out[:len(refs)]
	}
	missing := 0
	e.mu.RLock()
	for i, r := range refs {
		nbs, ok := e.cache[r]
		if !ok {
			missing++
		}
		out[i] = nbs // nil marks a miss: cached values are never nil
	}
	e.mu.RUnlock()
	e.cacheHits.Add(int64(len(refs) - missing))
	if missing == 0 {
		return out
	}
	for i, r := range refs {
		if out[i] == nil {
			out[i] = e.Neighborhoods(r) // counts its own hit or miss
		}
	}
	return out
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
func (e *Extractor) IndexBlock(nbs [][]prop.SparseNeighborhood, use func(p int) bool) *BlockIndex {
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
func (e *Extractor) Pair(a, b []prop.SparseNeighborhood, out []Trip) []Trip {
	x := e.IndexBlock([][]prop.SparseNeighborhood{a, b}, nil)
	s := e.BatchScratch()
	out = grow(out, len(a))
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

// Features returns a pair's two per-path feature vectors: set resemblance
// and the symmetrised random walk probability.
func (e *Extractor) Features(r1, r2 reldb.TupleID) (resem, walk []float64) {
	trips := e.Pair(e.Neighborhoods(r1), e.Neighborhoods(r2), nil)
	resem, walk = make([]float64, len(trips)), make([]float64, len(trips))
	for p, t := range trips {
		resem[p], walk[p] = t.Resem, (t.WalkAB+t.WalkBA)/2
	}
	return resem, walk
}

// CacheSize reports how many references have cached neighborhoods.
func (e *Extractor) CacheSize() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}
