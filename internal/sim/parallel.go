package sim

import (
	"cmp"
	"context"
	"slices"

	"distinct/internal/fault"
	"distinct/internal/obs/trace"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// Prefetch computes and caches the neighborhoods of every given reference,
// fanning the propagation work out over `workers` goroutines (0 means
// GOMAXPROCS). Propagation per reference is independent and the plan is
// read-only, so the workers only synchronise to read a stored donor and
// on the final cache merge.
// The compiled walk emits each neighborhood sorted, with its Σ Fwd, so a
// prefetched reference costs the serving path nothing but a cache read.
func (e *Extractor) Prefetch(refs []reldb.TupleID, workers int) {
	// Background context never cancels and carries no fault registry, so
	// the only possible error is a recovered worker panic: re-raise it.
	fault.Rethrow(e.PrefetchCtx(context.Background(), refs, workers))
}

// PrefetchCtx is Prefetch under a context: cancellation (and the
// "sim.prefetch" fault point) is observed between per-reference
// propagations, so the latency to abort is bounded by one propagation. On
// error, neighborhoods already computed are still merged into the cache —
// the cache only ever gains entries, so a partial prefetch is safe and the
// work is not wasted on a degraded retry. A worker panic is recovered into
// a *fault.PanicError instead of killing the process.
//
// The misses are sorted by (share key, reference) and each worker takes
// whole key groups, so a group's first reference donates its shared
// neighborhoods to the rest of the group on the same worker (the whole
// group borrows when a donor is already stored). sim.prefetch_shared counts
// the references that borrowed.
//
// When ctx carries a trace span (trace.ContextWithSpan), the work is
// recorded as a "prefetch" child span carrying how many references were
// requested and how many actually propagated (the rest were cache hits). A
// fully warm cache records propagated=0, so batch sweeps show per-name
// prefetch spans that did no work — which is itself the interesting fact.
func (e *Extractor) PrefetchCtx(ctx context.Context, refs []reldb.TupleID, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fault.Point(ctx, "sim.prefetch"); err != nil {
		return err
	}
	// Collect the uncached references in one pass under the read lock. All
	// copies of a reference are hits or misses together, so only the misses
	// need deduplicating, which sorting them by share key does for free.
	var todo []shareRef
	e.mu.RLock()
	for _, r := range refs {
		if _, ok := e.cache[r]; !ok {
			todo = append(todo, shareRef{ref: r})
		}
	}
	e.mu.RUnlock()
	todo, groups := e.groupByShareKey(todo) // todo[groups[g]:groups[g+1]] is key group g
	e.prefetchRequested.Add(int64(len(refs)))
	e.prefetchDeduped.Add(int64(len(refs) - len(todo)))
	e.prefetchPropagated.Add(int64(len(todo)))
	tsp := trace.SpanFromContext(ctx).Start("prefetch",
		trace.Int("requested", int64(len(refs))),
		trace.Int("propagated", int64(len(todo))))
	defer tsp.End()
	if len(todo) == 0 {
		return nil
	}
	sp := e.prefetchStage.Start()
	defer func() { sp.End(len(todo)) }()
	// Workers only compute; the merge happens under the lock afterwards, so
	// cache metrics are identical whatever the worker count: prefetched
	// propagations never count as cache misses.
	results := make([][]prop.SparseNeighborhood, len(todo))
	runErr := fault.ParallelFor(ctx, len(groups)-1, workers, func(g int) error {
		lo, hi := groups[g], groups[g+1]
		donor := e.donor(todo[lo].key)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			results[i] = e.propagate(todo[i].ref, donor)
			if donor != nil {
				e.prefetchShared.Inc()
			}
			donor = results[i] // the rest of the key group borrows from it
		}
		return nil
	})
	e.mu.Lock()
	for i, t := range todo {
		if results[i] != nil { // nil: skipped after cancellation / failure
			e.store(t.ref, t.key, results[i])
		}
	}
	e.mu.Unlock()
	return runErr
}

// shareRef is one reference to prefetch with its share key.
type shareRef struct {
	ref, key reldb.TupleID
}

// groupByShareKey fills in the share keys of todo, sorts it by (key, ref),
// drops duplicate references and returns the boundaries of the key groups:
// group g is todo[groups[g]:groups[g+1]]. A reference with no key (-1)
// forms a group of its own.
func (e *Extractor) groupByShareKey(todo []shareRef) ([]shareRef, []int) {
	for i := range todo {
		todo[i].key = e.plan.ShareKey(todo[i].ref)
	}
	slices.SortFunc(todo, func(a, b shareRef) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ref, b.ref))
	})
	todo = slices.CompactFunc(todo, func(a, b shareRef) bool { return a.ref == b.ref })
	var groups []int
	for i, t := range todo {
		if i == 0 || t.key < 0 || t.key != todo[i-1].key {
			groups = append(groups, i)
		}
	}
	return todo, append(groups, len(todo))
}
