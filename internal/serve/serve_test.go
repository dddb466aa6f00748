package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distinct/internal/core"
)

func doJSON(t *testing.T, h http.Handler, method, target, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var decoded map[string]any
	if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("%s %s: invalid JSON body %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w, decoded
}

func TestHandleNameHappyPath(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, nil)
	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	if body["name"] != "Wei Wang" {
		t.Errorf("name = %v", body["name"])
	}
	if groups, ok := body["groups"].([]any); !ok || len(groups) != 2 {
		t.Errorf("groups = %v", body["groups"])
	}
	if body["cached"] != false {
		t.Errorf("first hit reported cached")
	}
	// Second request: served from cache, marked so.
	w2, body2 := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w2.Code != http.StatusOK || body2["cached"] != true {
		t.Errorf("second hit: status %d cached=%v", w2.Code, body2["cached"])
	}
	if b.calls.Load() != 1 {
		t.Errorf("backend invoked %d times for two requests", b.calls.Load())
	}
}

func TestHandleNameNotFound(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d", w.Code)
	}
	if body["error"] == "" || body["status"] != float64(404) {
		t.Errorf("malformed error envelope: %v", body)
	}
	if got := s.reg.Counter("serve.not_found").Value(); got != 1 {
		t.Errorf("serve.not_found = %d", got)
	}
}

func TestHandleBatchMixedNames(t *testing.T) {
	b := newStubBackend("Wei Wang", "Bin Yu")
	s := newTestServer(t, b, nil)
	w, body := doJSON(t, s.Handler(), "POST", "/v1/batch",
		`{"names":["Wei Wang","Nobody","Bin Yu"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	first := results[0].(map[string]any)
	if first["name"] != "Wei Wang" || first["error"] != nil {
		t.Errorf("first item: %v", first)
	}
	missing := results[1].(map[string]any)
	if missing["name"] != "Nobody" || missing["status"] != float64(404) {
		t.Errorf("missing item: %v", missing)
	}
}

func TestHandleBatchRejectsMalformedAndOversized(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	oversized, err := json.Marshal(batchRequest{Names: make([]string, DefaultMaxBatchNames+1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body string
		want string
	}{
		{"{not json", "bad request body"},
		{`{"names":[]}`, "names is empty"},
		{string(oversized), "exceeds the limit of 256"},
	} {
		w, body := doJSON(t, s.Handler(), "POST", "/v1/batch", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %.40q: status %d, want 400", tc.body, w.Code)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("body %.40q: error %q, want it to mention %q", tc.body, msg, tc.want)
		}
	}
}

func TestHandleNames(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang", "Bin Yu"), nil)
	w, body := doJSON(t, s.Handler(), "GET", "/v1/names?min_refs=2", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if names := body["names"].([]any); len(names) != 2 {
		t.Errorf("names = %v", names)
	}
	w2, _ := doJSON(t, s.Handler(), "GET", "/v1/names?min_refs=banana", "")
	if w2.Code != http.StatusBadRequest {
		t.Errorf("bad min_refs: status %d", w2.Code)
	}
	// A threshold nothing meets returns an empty list, not null.
	w3, _ := doJSON(t, s.Handler(), "GET", "/v1/names?min_refs=1000", "")
	if !strings.Contains(w3.Body.String(), `"names":[]`) {
		t.Errorf("empty result not an empty list: %s", w3.Body.String())
	}
}

// TestAdmissionShedsLoadWith429: with one compute slot and a queue of one,
// a third concurrent computation is refused immediately with 429 and a
// Retry-After hint rather than piling up unboundedly.
func TestAdmissionShedsLoadWith429(t *testing.T) {
	b := newStubBackend("a", "b", "c")
	b.block = make(chan struct{})
	b.started = make(chan string, 3)
	s := newTestServer(t, b, func(o *Options) {
		o.Concurrency = 1
		o.MaxQueue = 1
	})

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	go func() { defer wg.Done(); _, _, errs[0] = s.lookup(context.Background(), "a") }()
	<-b.started // "a" holds the only slot
	go func() { defer wg.Done(); _, _, errs[1] = s.lookup(context.Background(), "b") }()
	waitUntil(t, "b queued", func() bool { return s.adm.queued.Load() == 1 })

	// The queue is full: "c" must be shed, and over HTTP that is a 429
	// with Retry-After.
	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/c", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if body["status"] != float64(429) {
		t.Errorf("error envelope: %v", body)
	}
	if got := s.reg.Counter("serve.rejected_429").Value(); got != 1 {
		t.Errorf("serve.rejected_429 = %d", got)
	}

	close(b.block)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("admitted requests failed: %v, %v", errs[0], errs[1])
	}
	if got := s.reg.Gauge("serve.queue_depth").Value(); got != 0 {
		t.Errorf("queue depth gauge = %v after drain", got)
	}
}

// TestLookupSkipsCacheStoreWhenVersionMoves is the version-ordering
// regression of the serving cache: a result computed while an Insert landed mid-flight must NOT be stored
// under the pre-compute version — the next request recomputes against the
// new contents instead of being served a mixed-state answer as fresh.
func TestLookupSkipsCacheStoreWhenVersionMoves(t *testing.T) {
	b := newStubBackend("Wei Wang")
	b.onCompute = func(ctx context.Context, name string) ([][]string, *core.Incident, error) {
		if b.calls.Load() == 1 {
			b.version.Add(1) // an Insert lands mid-computation
		}
		return [][]string{{"k1", "k2"}}, nil, nil
	}
	s := newTestServer(t, b, nil)
	if _, _, err := s.lookup(context.Background(), "Wei Wang"); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("result computed across a version bump was cached (len=%d)", got)
	}
	// The next lookup recomputes at the new version and caches cleanly.
	_, meta, err := s.lookup(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if meta.cached {
		t.Fatal("second lookup served from cache; stale store happened")
	}
	if b.calls.Load() != 2 {
		t.Fatalf("backend invoked %d times, want 2", b.calls.Load())
	}
	if s.cache.Len() != 1 {
		t.Fatalf("clean result at the new version not cached")
	}
}

// TestLookupReadsVersionBeforeProbe pins the probe protocol itself: the
// version passed to the cache and the flight key is the one read before the
// probe, so a cached result's version always equals the version the caller
// observed — never one that appeared later.
func TestLookupReadsVersionBeforeProbe(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, nil)
	res, _, err := s.lookup(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 0 {
		t.Fatalf("result version %d, want 0", res.Version)
	}
	b.version.Add(1)
	res2, meta, err := s.lookup(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if meta.cached {
		t.Fatal("post-insert lookup served the pre-insert cache entry")
	}
	if res2.Version != 1 {
		t.Fatalf("post-insert result version %d, want 1", res2.Version)
	}
}

func TestIncidentResultsAreNotCached(t *testing.T) {
	b := newStubBackend("Wei Wang")
	b.onCompute = func(ctx context.Context, name string) ([][]string, *core.Incident, error) {
		return [][]string{{"k1"}}, &core.Incident{
			Name: name, Reason: core.IncidentDegraded, Err: "budget blown",
		}, nil
	}
	s := newTestServer(t, b, nil)
	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("degraded response status %d, want 200", w.Code)
	}
	if body["degraded"] != true {
		t.Errorf("degraded flag missing: %v", body)
	}
	if s.cache.Len() != 0 {
		t.Error("degraded result was cached")
	}
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if b.calls.Load() != 2 {
		t.Errorf("degraded result served twice from one compute (calls=%d)", b.calls.Load())
	}
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	w, _ := doJSON(t, s.Handler(), "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthy healthz = %d", w.Code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w2, _ := doJSON(t, s.Handler(), "GET", "/healthz", "")
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d", w2.Code)
	}
	// /v1 requests are refused with 503 + Retry-After; metrics still served.
	w3, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w3.Code != http.StatusServiceUnavailable || w3.Header().Get("Retry-After") == "" {
		t.Fatalf("post-drain request: status %d retry-after %q", w3.Code, w3.Header().Get("Retry-After"))
	}
	w4, _ := doJSON(t, s.Handler(), "GET", "/metrics", "")
	if w4.Code != http.StatusOK {
		t.Fatalf("metrics during drain = %d", w4.Code)
	}
}

func TestNewRequiresBackend(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("backendless server accepted")
	}
}

func TestErrStatusMapping(t *testing.T) {
	s := newTestServer(t, newStubBackend(), nil)
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errNotFound, 404},
		{errOverloaded, 429},
		{errDraining, 503},
		{context.Canceled, 499},
		{context.DeadlineExceeded, 499},
		{errors.New("boom"), 500},
	} {
		if got, _ := s.errStatus(tc.err); got != tc.want {
			t.Errorf("errStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestRetryAfterValue(t *testing.T) {
	if got := retryAfterValue(0); got != "1" {
		t.Errorf("retryAfterValue(0) = %q", got)
	}
	if got := retryAfterValue(2500 * time.Millisecond); got != "2" {
		t.Errorf("retryAfterValue(2.5s) = %q", got)
	}
}

// TestEngineBackendNumRefsAllocatesNothing: every uncached lookup counts
// the name's references, which reads the engine's index without copying
// them — for a known name and for an unknown one alike.
func TestEngineBackendNumRefsAllocatesNothing(t *testing.T) {
	eng := chaosEngine(t)
	b := NewEngineBackend(eng, "paper-key")
	for _, name := range []string{"Wei Wang", "No Such Name"} {
		if got, want := b.NumRefs(name), len(eng.RefsForName(name)); got != want {
			t.Errorf("NumRefs(%q) = %d, want %d", name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { b.NumRefs(name) }); allocs != 0 {
			t.Errorf("NumRefs(%q) allocates %v times, want 0", name, allocs)
		}
	}
}
