package sim

import (
	"context"

	"distinct/internal/fault"
	"distinct/internal/obs/trace"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// Prefetch computes and caches the neighborhoods of every given reference,
// fanning the propagation work out over `workers` goroutines (0 means
// GOMAXPROCS). Propagation per reference is independent and the database
// is read-only, so the workers only synchronise on the final cache merge.
// The sparse finalisation (sort + Σ Fwd) also runs on the workers, so a
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
	// need deduplicating, and a warm batch builds no dedupe map at all.
	var todo []reldb.TupleID
	e.mu.RLock()
	for _, r := range refs {
		if _, ok := e.cache[r]; !ok {
			todo = append(todo, r)
		}
	}
	e.mu.RUnlock()
	if len(todo) > 1 {
		seen := make(map[reldb.TupleID]bool, len(todo))
		uniq := todo[:0]
		for _, r := range todo {
			if !seen[r] {
				seen[r] = true
				uniq = append(uniq, r)
			}
		}
		todo = uniq
	}
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
	runErr := fault.ParallelFor(ctx, len(todo), workers, func(i int) error {
		results[i] = e.propagate(todo[i])
		return nil
	})
	e.mu.Lock()
	for i, r := range todo {
		if results[i] == nil {
			continue // skipped after cancellation / failure
		}
		if _, ok := e.cache[r]; !ok {
			e.cache[r] = results[i]
		}
	}
	e.mu.Unlock()
	return runErr
}
