// Resilience layer: stage error wrapping, panic-isolating parallel
// iteration, and the degraded engine view used by per-name budget retries.
// Stage-boundary context checks and fault points live in the stage
// primitive (stage.go). See DESIGN.md §10.

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"distinct/internal/fault"
)

// StageError wraps an error with the pipeline stage that observed it, so a
// cancellation or injected fault surfaces as "core: similarities: context
// canceled" and incident records can name the failing stage. Unwrap
// preserves errors.Is(err, context.Canceled/DeadlineExceeded).
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return "core: " + e.Stage + ": " + e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

// stageErr wraps err with the stage name (nil in, nil out). An error that
// already carries a StageError passes through unchanged, keeping the
// innermost stage — the one that actually observed the failure.
func stageErr(stage string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// errStage extracts the stage name an error was wrapped with ("" when the
// error carries none).
func errStage(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// incidentStage names the stage an incident's error belongs to: the
// innermost StageError when one is present; for an injected stage-boundary
// panic (which escapes before any stage wrapping) the firing point with its
// "core." prefix trimmed; "" otherwise.
func incidentStage(err error) string {
	if s := errStage(err); s != "" {
		return s
	}
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		if ip, ok := pe.Value.(fault.InjectedPanic); ok {
			return strings.TrimPrefix(ip.Point, "core.")
		}
	}
	return ""
}

// guard runs f, converting a panic on this goroutine into a *fault.PanicError
// carrying the recovered value and stack.
func guard(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &fault.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f()
}

// parallelForCtx runs body(i) for i in [0,n) on `workers` goroutines
// (0 = GOMAXPROCS), claiming each index exactly once. body must write only
// to per-index state. Cancellation is observed between items, so the
// latency to return after a cancel is bounded by the slowest single item.
// A worker panic is recovered into a *fault.PanicError instead of killing
// the process. The first failure (body error, panic, or context end) stops
// further claims; items already claimed run to completion, and no index is
// ever executed twice.
func parallelForCtx(ctx context.Context, n, workers int, body func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := i
			if err := guard(func() error { return body(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := guard(func() error { return body(i) }); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// rethrow re-raises an error that cannot legitimately occur on a
// background-context, fault-free path: recovered worker panics come back
// with their original stack attached, anything else panics as-is.
func rethrow(err error) {
	if err == nil {
		return
	}
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("%v\n\nrecovered worker stack:\n%s", pe.Value, pe.Stack))
	}
	panic(err)
}

// DefaultDegradedPaths is how many of the strongest join paths a degraded
// per-name retry keeps (see BatchOptions.DegradedPaths).
const DefaultDegradedPaths = 4

// degraded returns a shallow engine view whose weights keep only the k
// strongest join paths by combined learned weight (renormalised to sum 1),
// sharing the database, extractor cache, and observability sinks with the
// parent. Cutting the path set shrinks both the blocking index and the
// per-pair kernel loop, which is what lets a name that blew its budget be
// retried cheaply. If k already covers every positively weighted path the
// receiver itself is returned.
func (e *Engine) degraded(k int) *Engine {
	if k <= 0 {
		k = DefaultDegradedPaths
	}
	nonzero := 0
	for p := range e.resemW {
		if e.resemW[p] > 0 || e.walkW[p] > 0 {
			nonzero++
		}
	}
	if nonzero <= k {
		return e
	}
	type pathWeight struct {
		p int
		w float64
	}
	ranked := make([]pathWeight, len(e.resemW))
	for p := range e.resemW {
		ranked[p] = pathWeight{p: p, w: e.resemW[p] + e.walkW[p]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].w != ranked[j].w {
			return ranked[i].w > ranked[j].w
		}
		return ranked[i].p < ranked[j].p
	})
	resem := make([]float64, len(e.resemW))
	walk := make([]float64, len(e.walkW))
	for _, r := range ranked[:k] {
		resem[r.p] = e.resemW[r.p]
		walk[r.p] = e.walkW[r.p]
	}
	de := *e
	de.resemW = normalize(resem)
	de.walkW = normalize(walk)
	return &de
}
