package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStaleServeAndRevalidate is the stale-while-revalidate happy path: a
// version bump does not make the next lookup pay a recompute — it serves
// the previous-version entry marked stale while a background flight brings
// the cache up to date, after which lookups are fresh again.
func TestStaleServeAndRevalidate(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = time.Minute })

	// Warm the cache at version 0.
	w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("warm status %d", w.Code)
	}
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("warm computes = %d", got)
	}

	b.Bump()
	w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-bump status %d", w.Code)
	}
	if resp["stale"] != true || resp["cached"] != true {
		t.Fatalf("post-bump envelope not marked stale+cached: %v", resp)
	}
	// The stale answer is version 0's result; the envelope says so.
	if v := resp["version"].(float64); int64(v) != 0 {
		t.Errorf("stale result version = %v, want 0", v)
	}
	if got := s.reg.Counter("serve.stale_hits").Value(); got != 1 {
		t.Errorf("stale_hits = %d, want 1", got)
	}
	if got := s.reg.Counter("serve.revalidations").Value(); got != 1 {
		t.Errorf("revalidations = %d, want 1", got)
	}

	// The background flight recomputes at version 1; once it lands, lookups
	// are fresh — no stale marker, no new compute.
	waitUntil(t, "revalidation to land", func() bool { return b.calls.Load() == 2 })
	waitUntil(t, "flight to unregister", func() bool { return s.flights.inflight() == 0 })
	w, resp = doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-revalidate status %d", w.Code)
	}
	if resp["stale"] == true {
		t.Fatal("still stale after revalidation landed")
	}
	if resp["cached"] != true {
		t.Fatalf("post-revalidate lookup not cached: %v", resp)
	}
	if v := resp["version"].(float64); int64(v) != 1 {
		t.Errorf("post-revalidate version = %v, want 1", v)
	}
	if got := b.calls.Load(); got != 2 {
		t.Errorf("computes = %d, want 2 (warm + revalidate)", got)
	}
}

// TestStaleRevalidateExactlyOnce is the stampede test: 64 goroutines hit a
// stale entry concurrently right after a version bump; every one must be
// answered (stale or fresh), and the new version must be recomputed exactly
// once.
func TestStaleRevalidateExactlyOnce(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = time.Minute })

	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatalf("warm status %d", w.Code)
	}
	b.Bump()

	const goroutines = 64
	var wg sync.WaitGroup
	codes := make([]int, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d status %d", i, c)
		}
	}
	waitUntil(t, "revalidation to land", func() bool { return s.flights.inflight() == 0 })
	// Exactly one compute per (name, version): the warm-up plus one
	// revalidation at the new version, no matter how many stale hits raced.
	if got := b.calls.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (one per version)", got)
	}
	if got := s.reg.Counter("serve.revalidations").Value(); got != 1 {
		t.Errorf("revalidations = %d, want 1", got)
	}
}

// TestStaleWindowExpires pins the bound: past MaxStale the outdated entry
// is purged and the lookup waits for the recompute instead of being served
// stale (no indefinitely-stale serving).
func TestStaleWindowExpires(t *testing.T) {
	const maxStale = 100 * time.Millisecond
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = maxStale })
	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatalf("warm status %d", w.Code)
	}
	// Hold the revalidation the first stale probe launches, so the outdated
	// entry stays cached while its window (started by that probe) runs out.
	b.block = make(chan struct{})
	b.Bump()
	if _, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); resp["stale"] != true {
		t.Fatalf("first post-bump probe not stale: %v", resp)
	}
	time.Sleep(2 * maxStale)

	// Past the window the probe must not be answered from the entry: it
	// joins the held revalidation and waits for the version-1 result.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil))
		done <- w
	}()
	waitUntil(t, "expired probe to join the revalidation", func() bool {
		return s.flights.waitersFor(flightKey{name: "Wei Wang", version: 1}) == 1
	})
	close(b.block)
	w := <-done
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("post-expiry status %d, body %q", w.Code, w.Body.String())
	}
	if resp["stale"] == true || resp["cached"] == true {
		t.Fatalf("expired entry served from cache: %v", resp)
	}
	if v := resp["version"].(float64); int64(v) != 1 {
		t.Errorf("post-expiry version = %v, want 1", v)
	}
	if got := b.calls.Load(); got != 2 {
		t.Errorf("computes = %d, want 2 (warm + one revalidation)", got)
	}
}

// TestStaleNegativeServes404 covers the negative-cache half: a cached 404
// outlives a version bump as a stale 404 (body marked stale) while the
// background flight re-checks the name — and when the name now exists, the
// re-check caches the real result.
func TestStaleNegativeServes404(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = time.Minute })

	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", ""); w.Code != http.StatusNotFound {
		t.Fatalf("seed status %d", w.Code)
	}
	// The name appears with the next version (an insert landed).
	b.refs["Nobody"] = 2
	b.Bump()

	w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("stale-negative status %d", w.Code)
	}
	if resp["stale"] != true {
		t.Fatalf("stale negative not marked: %v", resp)
	}
	if got := s.reg.Counter("serve.stale_neg_hits").Value(); got != 1 {
		t.Errorf("stale_neg_hits = %d, want 1", got)
	}
	// Revalidation finds the name and caches the result; the next lookup is
	// a fresh 200.
	waitUntil(t, "revalidation to land", func() bool { return s.flights.inflight() == 0 })
	w, resp = doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if w.Code != http.StatusOK || resp["stale"] == true || resp["cached"] != true {
		t.Fatalf("post-revalidate lookup: status %d, body %v", w.Code, resp)
	}
}

// TestStalePositiveRevalidatesToNotFound is the reverse transition: a cached
// name loses its references at the next version. The stale 200 revalidates
// into a negative entry that replaces the result, so the next probe is a
// fresh 404 served from the cache.
func TestStalePositiveRevalidatesToNotFound(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = time.Minute })

	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatalf("warm status %d", w.Code)
	}
	delete(b.refs, "Wei Wang")
	b.Bump()

	w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK || resp["stale"] != true {
		t.Fatalf("post-bump probe: status %d, body %v; want a stale 200", w.Code, resp)
	}
	waitUntil(t, "revalidation to land", func() bool { return s.flights.inflight() == 0 })
	w, resp = doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusNotFound || resp["stale"] == true {
		t.Fatalf("post-revalidate probe: status %d, body %v; want a fresh 404", w.Code, resp)
	}
	if got := s.reg.Counter("serve.negcache_hits").Value(); got != 1 {
		t.Errorf("negcache_hits = %d, want 1", got)
	}
	if got := s.reg.Counter("serve.negcache_misses").Value(); got != 0 {
		t.Errorf("negcache_misses = %d, want 0 (the revalidation cached the 404)", got)
	}
	if got := b.calls.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (the revalidation found no references)", got)
	}
}

// TestRevalidationVersionSkew is the three-versions-in-flight regression:
// a revalidation keyed at V2 must not publish its result as fresh when a
// second bump (V3) lands mid-compute — the computation may have observed
// V3's contents and is a snapshot of no version. The stale V1 entry keeps
// serving until a revalidation keyed at V3 lands truth.
func TestRevalidationVersionSkew(t *testing.T) {
	b := newStubBackend("Wei Wang")
	b.started = make(chan string, 4)
	b.block = make(chan struct{})
	s := newTestServer(t, b, func(o *Options) { o.MaxStale = time.Minute })

	// Warm at V1 (bump first so versions read 1, 2, 3).
	b.Bump()
	close(b.block) // warm compute passes straight through
	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatal("warm failed")
	}
	<-b.started
	b.block = make(chan struct{}) // re-arm: the next compute blocks

	// Bump to V2; the stale hit launches a revalidation that now blocks
	// inside the backend.
	b.Bump()
	if _, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); resp["stale"] != true {
		t.Fatalf("V2 probe not stale: %v", resp)
	}
	<-b.started // the V2 revalidation is inside Disambiguate

	// Second bump lands mid-compute: three versions now in play — the V1
	// entry serving stale, the V2 flight computing, V3 live.
	b.Bump()
	close(b.block) // let the V2 flight finish
	waitUntil(t, "V2 flight to finish", func() bool { return s.flights.inflight() == 0 })

	// The V2 result must NOT have been published: the cache still holds the
	// V1 entry, so a V3 probe serves it stale (and launches a V3
	// revalidation) instead of claiming an intermediate-version result as
	// V3's truth.
	_, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if resp["stale"] != true {
		t.Fatalf("intermediate-version result published as fresh: %v", resp)
	}
	if v := resp["version"].(float64); int64(v) != 1 {
		t.Errorf("stale serve carries version %v, want 1 (the last published truth)", v)
	}
	<-b.started // the V3 revalidation is in flight
	waitUntil(t, "V3 revalidation to land", func() bool { return s.flights.inflight() == 0 })
	_, resp = doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if resp["stale"] == true {
		t.Fatal("still stale after V3 revalidation")
	}
	if v := resp["version"].(float64); int64(v) != 3 {
		t.Errorf("final version = %v, want 3", v)
	}
}

// TestStaleDisabledKeepsStrictSemantics pins the opt-out: with MaxStale < 0
// (the newTestServer default) a version bump invalidates immediately — the
// pre-SWR behavior other tests rely on.
func TestStaleDisabledKeepsStrictSemantics(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, nil)
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	b.Bump()
	_, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if resp["stale"] == true || resp["cached"] == true {
		t.Fatalf("MaxStale<0 still served stale: %v", resp)
	}
	if got := b.calls.Load(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
	if got := s.reg.Counter("serve.revalidations").Value(); got != 0 {
		t.Errorf("revalidations = %d, want 0", got)
	}
}

// TestDebugBump covers the drill knob: POST /debug/bump is mounted only
// with AllowBump and a Mutator backend, and bumps the version it reports.
func TestDebugBump(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.AllowBump = true })
	w, resp := doJSON(t, s.Handler(), "POST", "/debug/bump", "")
	if w.Code != http.StatusOK {
		t.Fatalf("bump status %d", w.Code)
	}
	if v := resp["version"].(float64); int64(v) != 1 || b.Version() != 1 {
		t.Fatalf("bump reported %v, backend at %d", v, b.Version())
	}

	// Without AllowBump the route does not exist (the /debug/ catch-all
	// serves the metrics registry, a GET-ish handler; the POST must not
	// mutate).
	s2 := newTestServer(t, newStubBackend("X"), nil)
	doJSON(t, s2.Handler(), "POST", "/debug/bump", "")
	if got := s2.backend.Version(); got != 0 {
		t.Fatalf("bump without AllowBump mutated version to %d", got)
	}
}
