package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"distinct/internal/core"
	"distinct/internal/obs"
)

// stubBackend is a deterministic Backend for serving-layer tests: canned
// groups, an invocation counter, an optional start signal and block channel
// so tests can stand inside a computation, and a mutable version so
// Insert-racing scenarios can be scripted without a real database.
type stubBackend struct {
	version atomic.Int64
	calls   atomic.Int64
	// refs maps known names to their reference count; unknown names get 0.
	refs map[string]int
	// started, when non-nil, receives the name at each compute start.
	started chan string
	// block, when non-nil, is waited on (against ctx) before returning.
	block chan struct{}
	// onCompute, when non-nil, overrides the default clean result.
	onCompute func(ctx context.Context, name string) ([][]string, *core.Incident, error)
	// onNumRefs, when non-nil, runs at the start of every NumRefs call (a
	// hook that panics makes the lookup panic outside the engine).
	onNumRefs func(name string)
}

func newStubBackend(names ...string) *stubBackend {
	refs := make(map[string]int, len(names))
	for _, n := range names {
		refs[n] = 4
	}
	return &stubBackend{refs: refs}
}

func (b *stubBackend) Disambiguate(ctx context.Context, name string, opts core.BatchOptions) ([][]string, *core.Incident, error) {
	b.calls.Add(1)
	if b.started != nil {
		b.started <- name
	}
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if b.onCompute != nil {
		return b.onCompute(ctx, name)
	}
	if opts.ForceDegraded {
		// Mirror the real ladder's brownout shape: one coarse group plus a
		// degraded incident, so server-level brownout tests can assert on the
		// envelope without a trained engine.
		return [][]string{{name + "-a1", name + "-a2", name + "-b1"}},
			&core.Incident{Name: name, Stage: "brownout", Reason: core.IncidentDegraded}, nil
	}
	return [][]string{{name + "-a1", name + "-a2"}, {name + "-b1"}}, nil, nil
}

func (b *stubBackend) NumRefs(name string) int {
	if b.onNumRefs != nil {
		b.onNumRefs(name)
	}
	return b.refs[name]
}

func (b *stubBackend) Names(minRefs int) []string {
	var out []string
	for n, c := range b.refs {
		if c >= minRefs {
			out = append(out, n)
		}
	}
	return out
}

func (b *stubBackend) Version() int64 { return b.version.Load() }

// Bump implements Mutator for /debug/bump tests.
func (b *stubBackend) Bump() int64 { return b.version.Add(1) }

// newTestServer builds a server over backend with metrics on and small,
// test-friendly bounds. Extra options are layered via mod.
func newTestServer(t *testing.T, backend Backend, mod func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Backend:     backend,
		Obs:         obs.NewRegistry(),
		Concurrency: 4,
		NameTimeout: 5 * time.Second,
		// Staleness off by default: most tests pin the strict version-keyed
		// semantics (a bump invalidates immediately). Stale-while-revalidate
		// tests opt back in via mod.
		MaxStale: -1,
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitUntil polls cond until it holds or the deadline passes; the polling
// makes concurrency tests deterministic without sleeping for fixed amounts.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitersFor reports the current waiter count of key's flight (0 if none).
func (g *flightGroup) waitersFor(key flightKey) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f.waiters
	}
	return 0
}
