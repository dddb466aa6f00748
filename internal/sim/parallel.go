package sim

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"

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
	// the error return is impossible and safely discarded.
	_ = e.PrefetchCtx(context.Background(), refs, workers)
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
	if workers > len(todo) {
		workers = len(todo)
	}
	// The sequential path mirrors the worker pool (compute, then merge
	// under the lock) so cache metrics are identical whatever the worker
	// count: prefetched propagations never count as cache misses.
	results := make([][]prop.SparseNeighborhood, len(todo))
	var runErr error
	if workers == 1 {
		for i, r := range todo {
			if runErr = ctx.Err(); runErr != nil {
				break
			}
			if runErr = propagateGuarded(e, r, results, i); runErr != nil {
				break
			}
		}
	} else {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
		)
		fail := func(err error) {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if err := propagateGuarded(e, todo[i], results, i); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
	feed:
		for i := range todo {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
		if first != nil {
			runErr = first
		} else {
			runErr = ctx.Err()
		}
	}
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

// propagateGuarded runs one propagation, converting a panic into a
// *fault.PanicError carrying the worker's stack.
func propagateGuarded(e *Extractor, r reldb.TupleID, results [][]prop.SparseNeighborhood, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &fault.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	results[i] = e.propagate(r)
	return nil
}
