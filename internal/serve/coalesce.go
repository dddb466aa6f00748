package serve

import (
	"context"
	"sync"

	"distinct/internal/fault"
	"distinct/internal/obs"
)

// Request coalescing: duplicate in-flight lookups of one (name, version)
// share a single engine computation. The shape is singleflight with one
// deliberate difference — leader handoff. The computation runs in its own
// goroutine under a context derived from the server's base context, NOT from
// the first caller's request context, so a cancelled leader does not poison
// the waiters: they keep waiting and get the result. The flight context is
// cancelled only when the last waiter walks away, at which point nobody
// wants the answer.
//
// Background flights (launch) are the stale-while-revalidate producer: they
// start with no waiters and stay alive until the compute finishes, so a
// request that served stale and moved on never cancels the recompute it
// triggered. A later request for the same (name, version) joins the same
// flight via do — exactly-once recompute per key either way.
//
// A flight goroutine runs compute under fault.Guard: a panic that escapes
// compute (a background flight's own steps run outside Server.compute's
// recover) becomes the flight's *fault.PanicError, counted in the panics
// counter, instead of killing the process.

// flightKey identifies one coalesced computation. The version is part of
// the key so requests racing an Insert never share results across database
// states: a waiter only ever receives a result computed at the version it
// asked for.
type flightKey struct {
	name    string
	version int64
}

// flight is one in-progress computation plus its waiters.
type flight struct {
	done       chan struct{} // closed after res/err are final
	res        *NameResult
	err        error
	cancel     context.CancelFunc // cancels the compute context
	waiters    int                // guarded by flightGroup.mu
	background bool               // launched flight: immune to waiter-abandon cancel
}

// flightGroup coalesces concurrent do calls per flightKey.
type flightGroup struct {
	base   context.Context // parent of every compute context
	panics *obs.Counter    // recovered compute panics

	mu      sync.Mutex
	flights map[flightKey]*flight
}

func newFlightGroup(base context.Context, panics *obs.Counter) *flightGroup {
	return &flightGroup{base: base, panics: panics, flights: make(map[flightKey]*flight)}
}

// register creates and starts a flight for key; callers hold mu and have
// checked that no flight exists for key.
func (g *flightGroup) register(key flightKey, background bool, compute func(context.Context) (*NameResult, error)) *flight {
	fctx, cancel := context.WithCancel(g.base)
	f := &flight{done: make(chan struct{}), cancel: cancel, background: background}
	g.flights[key] = f
	go func() {
		var r *NameResult
		e := guard(g.panics, func() (err error) {
			r, err = compute(fctx)
			return err
		})
		g.mu.Lock()
		f.res, f.err = r, e
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		cancel()
		close(f.done)
	}()
	return f
}

// do returns compute's result for key, running it at most once across all
// concurrent callers. coalesced reports whether this caller joined an
// existing flight (false for the caller that created it). When ctx ends
// before the flight finishes, do returns ctx's error; the flight itself is
// cancelled only if this was the last waiter and the flight is not a
// background revalidation.
func (g *flightGroup) do(ctx context.Context, key flightKey, compute func(context.Context) (*NameResult, error)) (res *NameResult, coalesced bool, err error) {
	g.mu.Lock()
	f, coalesced := g.flights[key]
	if !coalesced {
		f = g.register(key, false, compute)
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		g.mu.Lock()
		f.waiters--
		g.mu.Unlock()
		return f.res, coalesced, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0 && !f.background
		if abandoned {
			select {
			case <-f.done:
				// Compute finished while we were giving up; nothing to cancel.
				abandoned = false
			default:
				// Last waiter gone mid-compute: unregister the flight so the
				// next request starts fresh rather than joining a computation
				// about to be cancelled.
				if g.flights[key] == f {
					delete(g.flights, key)
				}
			}
		}
		g.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		return nil, coalesced, ctx.Err()
	}
}

// launch starts a background flight for key if none is in progress and
// reports whether it started one (false means a flight — foreground or
// background — already covers the key, so the recompute is already
// happening). Nobody waits on a launched flight: it runs under the
// server's base context until the compute returns, publishing through
// whatever side effects compute performs (the cache store). This is the
// stale-while-revalidate trigger.
func (g *flightGroup) launch(key flightKey, compute func(context.Context) (*NameResult, error)) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.flights[key]; ok {
		return false
	}
	g.register(key, true, compute)
	return true
}

// guard runs f under fault.Guard, counting a recovered panic in panics.
func guard(panics *obs.Counter, f func() error) error {
	panicked := true
	err := fault.Guard(func() error {
		err := f()
		panicked = false
		return err
	})
	if panicked {
		panics.Inc()
	}
	return err
}

// inflight reports how many flights are currently running (for tests).
func (g *flightGroup) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
