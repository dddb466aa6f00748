package serve

import (
	"context"
	"net/http"
	"testing"

	"distinct/internal/core"
)

// TestNilCacheIsInert: CacheBytes < 0 builds no cache, and every lookup of
// a known name computes. TestNegCacheDisabled covers the 404 side.
func TestNilCacheIsInert(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.CacheBytes = -1 })
	if s.cache != nil {
		t.Fatal("cache built despite CacheBytes=-1")
	}
	for i := 0; i < 2; i++ {
		w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
		if w.Code != http.StatusOK || resp["cached"] == true {
			t.Fatalf("lookup %d: status %d, body %v; want an uncached 200", i, w.Code, resp)
		}
	}
	if got := b.calls.Load(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
}

// TestResultCacheByteBoundEviction: results and negative entries share the
// CacheBytes budget, each priced by resultBytes, so a cached 404 evicts the
// least recently used result.
func TestResultCacheByteBoundEviction(t *testing.T) {
	b := newStubBackend("n0", "n1")
	groups := [][]string{{"k"}}
	b.onCompute = func(context.Context, string) ([][]string, *core.Incident, error) {
		return groups, nil, nil
	}
	s := newTestServer(t, b, func(o *Options) {
		o.CacheBytes = 2 * resultBytes("n0", &NameResult{Groups: groups})
	})
	for _, name := range []string{"n0", "n1", "ghost"} {
		doJSON(t, s.Handler(), "GET", "/v1/name/"+name, "")
	}
	if got := s.reg.Counter("serve.cache_evictions").Value(); got != 1 {
		t.Errorf("cache_evictions = %d, want 1 (the 404 evicts n0)", got)
	}
	if _, resp := doJSON(t, s.Handler(), "GET", "/v1/name/n1", ""); resp["cached"] != true {
		t.Errorf("n1 not served from cache: %v", resp)
	}
	if _, resp := doJSON(t, s.Handler(), "GET", "/v1/name/n0", ""); resp["cached"] == true {
		t.Errorf("evicted n0 served from cache: %v", resp)
	}
	if got := b.calls.Load(); got != 3 {
		t.Errorf("computes = %d, want 3 (n0, n1, n0 again)", got)
	}
}
