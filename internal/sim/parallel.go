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

// Prefetch computes and stores the neighborhoods of every given reference,
// fanning the propagation work out over `workers` goroutines (0 means
// GOMAXPROCS); see NeighborhoodsCtx.
func (e *Extractor) Prefetch(refs []reldb.TupleID, workers int) {
	// Background context never cancels and carries no fault registry, so
	// the only possible error is a recovered worker panic: re-raise it.
	_, err := e.NeighborhoodsCtx(context.Background(), refs, workers)
	fault.Rethrow(err)
}

// NeighborhoodsCtx returns Neighborhoods(r) for every reference in refs,
// in order. It loads the stored ones, then propagates the rest over
// `workers` goroutines (0 means GOMAXPROCS), each worker publishing
// straight into the store. Propagation per reference is independent and
// the plan is read-only, so the workers never wait on each other.
// Cancellation (and the "sim.prefetch" fault point) is observed between
// per-reference propagations, so the latency to abort is bounded by one
// propagation. On error no block is returned, but the neighborhoods
// already published stay stored — the store only ever gains entries, so a
// partial block is safe and the work is not wasted on a degraded retry. A
// worker panic is recovered into a *fault.PanicError instead of killing
// the process.
//
// The misses are sorted by (share key, reference), which also drops
// duplicates, and each worker takes whole key groups, so a group's first
// reference donates its shared neighborhoods to the rest of the group on
// the same worker (the whole group borrows when a donor is already
// stored). sim.prefetch_shared counts the propagations that borrowed; a
// group never spans workers, so the count does not depend on `workers`.
//
// When ctx carries a trace span (trace.ContextWithSpan), the work is
// recorded as a "prefetch" child span carrying how many references were
// requested and how many actually propagated (the rest were stored). A
// fully warm store records propagated=0, so batch sweeps show per-name
// prefetch spans that did no work — which is itself the interesting fact.
func (e *Extractor) NeighborhoodsCtx(ctx context.Context, refs []reldb.TupleID, workers int) ([]*prop.Neighborhoods, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fault.Point(ctx, "sim.prefetch"); err != nil {
		return nil, err
	}
	out := make([]*prop.Neighborhoods, len(refs))
	var todo []shareRef
	for i, r := range refs {
		if out[i] = e.load(r); out[i] == nil {
			todo = append(todo, shareRef{ref: r})
		}
	}
	todo, groups := e.groupByShareKey(todo) // todo[groups[g]:groups[g+1]] is key group g
	e.prefetchRequested.Add(int64(len(refs)))
	e.prefetchPropagated.Add(int64(len(todo)))
	tsp := trace.SpanFromContext(ctx).Start("prefetch",
		trace.Int("requested", int64(len(refs))),
		trace.Int("propagated", int64(len(todo))))
	defer tsp.End()
	if len(todo) == 0 {
		return out, nil
	}
	sp := e.prefetchStage.Start()
	defer func() { sp.End(len(todo)) }()
	err := fault.ParallelFor(ctx, len(groups)-1, workers, func(g int) error {
		lo, hi := groups[g], groups[g+1]
		donor := e.donor(todo[lo].key)
		for _, t := range todo[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			nbs := e.propagate(t.ref, donor)
			if donor != nil {
				e.prefetchShared.Inc()
			}
			donor = e.publish(t.ref, t.key, nbs) // the rest of the key group borrows from it
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		if out[i] == nil {
			out[i] = e.load(r)
		}
	}
	return out, nil
}

// shareRef is one reference to prefetch with its share key.
type shareRef struct {
	ref reldb.TupleID
	key int
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
