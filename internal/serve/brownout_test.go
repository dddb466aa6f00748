package serve

import (
	"net/http"
	"testing"
	"time"

	"distinct/internal/obs"
)

// TestBrownoutLadderEngageRecoverOrder walks the ladder with a synthetic
// clock: overload engages the first rung immediately and each deeper rung
// only after the dwell; calm recovers one rung per dwell, in reverse order;
// and the dead band between the thresholds holds the level.
func TestBrownoutLadderEngageRecoverOrder(t *testing.T) {
	t0 := time.Unix(10_000, 0)
	b := newBrownout(obs.NewRegistry(), t0)
	overQ, calmQ, midQ := 0.9, 0.1, 0.5 // vs engage 0.75 / recover 0.25
	noBurn := 0.0

	// First overload sample: straight to degraded, no dwell needed.
	if lvl := b.observe(overQ, noBurn, t0); lvl != brownoutDegraded {
		t.Fatalf("first overload sample → %v, want degraded", lvl)
	}
	// Still overloaded but inside the dwell: the ladder holds.
	if lvl := b.observe(overQ, noBurn, t0.Add(time.Second)); lvl != brownoutDegraded {
		t.Fatalf("pre-dwell deepen: %v", lvl)
	}
	// Past the dwell it deepens one rung per dwell, stopping at shed.
	if lvl := b.observe(overQ, noBurn, t0.Add(4*time.Second)); lvl != brownoutStale {
		t.Fatalf("second rung: %v, want stale", lvl)
	}
	if lvl := b.observe(overQ, noBurn, t0.Add(8*time.Second)); lvl != brownoutShed {
		t.Fatalf("third rung: %v, want shed", lvl)
	}
	if lvl := b.observe(overQ, noBurn, t0.Add(12*time.Second)); lvl != brownoutShed {
		t.Fatalf("past the top rung: %v, want shed held", lvl)
	}

	// The dead band (between recover and engage thresholds) holds the level
	// no matter how long it lasts — no flapping off a recovery the signals
	// don't support.
	if lvl := b.observe(midQ, noBurn, t0.Add(30*time.Second)); lvl != brownoutShed {
		t.Fatalf("dead band recovered early: %v", lvl)
	}

	// Calm samples recover one rung per dwell, in reverse order.
	if lvl := b.observe(calmQ, noBurn, t0.Add(40*time.Second)); lvl != brownoutStale {
		t.Fatalf("first recovery: %v, want stale", lvl)
	}
	// Within the dwell of the new level: held, even though calm.
	if lvl := b.observe(calmQ, noBurn, t0.Add(41*time.Second)); lvl != brownoutStale {
		t.Fatalf("pre-dwell recovery: %v", lvl)
	}
	if lvl := b.observe(calmQ, noBurn, t0.Add(44*time.Second)); lvl != brownoutDegraded {
		t.Fatalf("second recovery: %v, want degraded", lvl)
	}
	if lvl := b.observe(calmQ, noBurn, t0.Add(48*time.Second)); lvl != brownoutNormal {
		t.Fatalf("third recovery: %v, want normal", lvl)
	}
	if lvl := b.observe(calmQ, noBurn, t0.Add(60*time.Second)); lvl != brownoutNormal {
		t.Fatalf("below normal: %v", lvl)
	}

	if got := b.status(t0.Add(60 * time.Second)); !got.Enabled || got.State != "normal" {
		t.Fatalf("final status: %+v", got)
	}
}

// TestBrownoutBurnSignal: the burn rate alone (queue empty) drives the
// ladder too — an error storm engages degradation even when admission has
// spare room.
func TestBrownoutBurnSignal(t *testing.T) {
	t0 := time.Unix(20_000, 0)
	b := newBrownout(obs.NewRegistry(), t0)
	if lvl := b.observe(0, 5.0, t0); lvl != brownoutDegraded {
		t.Fatalf("burn engage: %v", lvl)
	}
	// Queue calm but burn still hot: held (recover needs BOTH calm).
	if lvl := b.observe(0, 1.5, t0.Add(10*time.Second)); lvl != brownoutDegraded {
		t.Fatalf("half-calm recovered: %v", lvl)
	}
	if lvl := b.observe(0, 0.2, t0.Add(20*time.Second)); lvl != brownoutNormal {
		t.Fatalf("full calm: %v", lvl)
	}
}

// TestBrownoutNoFlapUnderOscillation: a signal oscillating across the
// engage threshold cannot flap the level faster than the dwell allows.
func TestBrownoutNoFlapUnderOscillation(t *testing.T) {
	t0 := time.Unix(30_000, 0)
	b := newBrownout(obs.NewRegistry(), t0)
	b.observe(0.9, 0, t0) // engage: degraded
	transitions := 0
	prev := brownoutDegraded
	// 2 seconds of 100ms samples alternating overload/calm — all inside the
	// 3s dwell, so the level must not move at all.
	for i := 1; i <= 20; i++ {
		q := 0.9
		if i%2 == 0 {
			q = 0.1
		}
		lvl := b.observe(q, 0, t0.Add(time.Duration(i)*100*time.Millisecond))
		if lvl != prev {
			transitions++
			prev = lvl
		}
	}
	if transitions != 0 {
		t.Fatalf("level moved %d times inside one dwell", transitions)
	}
}

// forceLevel pins the ladder to a level for server-behavior tests.
func forceLevel(s *Server, lvl brownoutLevel) {
	s.brown.level.Store(int32(lvl))
}

// TestBrownoutDegradedForcesDegradedComputes: at brownoutDegraded every
// compute runs ForceDegraded — 200 with degraded:true and a brownout-stage
// incident, and the result is not cached (incident results never are).
func TestBrownoutDegradedForcesDegradedComputes(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) { o.Brownout = true })
	forceLevel(s, brownoutDegraded)

	w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if resp["degraded"] != true {
		t.Fatalf("brownout compute not degraded: %v", resp)
	}
	inc := resp["incident"].(map[string]any)
	if inc["stage"] != "brownout" {
		t.Fatalf("incident stage = %v, want brownout", inc["stage"])
	}
	if got := s.reg.Counter("serve.brownout_forced_degraded").Value(); got != 1 {
		t.Errorf("brownout_forced_degraded = %d, want 1", got)
	}
	if s.cache.Len() != 0 {
		t.Errorf("degraded brownout result was cached")
	}
}

// TestBrownoutStaleStopsRevalidation: at brownoutStale a stale hit is
// served but no background recompute is launched — revalidation load is
// exactly what this rung sheds.
func TestBrownoutStaleStopsRevalidation(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) {
		o.Brownout = true
		o.MaxStale = time.Minute
	})
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	b.Bump()
	forceLevel(s, brownoutStale)

	_, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if resp["stale"] != true {
		t.Fatalf("stale entry not served under brownoutStale: %v", resp)
	}
	if got := s.reg.Counter("serve.revalidations").Value(); got != 0 {
		t.Fatalf("revalidation launched under brownoutStale: %d", got)
	}
	if got := s.flights.inflight(); got != 0 {
		t.Fatalf("%d flights in progress", got)
	}

	// Recovery resumes revalidation: the next stale hit launches one.
	forceLevel(s, brownoutNormal)
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if got := s.reg.Counter("serve.revalidations").Value(); got != 1 {
		t.Fatalf("revalidation after recovery = %d, want 1", got)
	}
}

// TestBrownoutShedRefusesUncached: at brownoutShed cached (fresh or stale)
// lookups still answer but uncached ones get 503 without touching the
// compute path.
func TestBrownoutShedRefusesUncached(t *testing.T) {
	b := newStubBackend("Wei Wang", "Bin Yu")
	s := newTestServer(t, b, func(o *Options) {
		o.Brownout = true
		o.MaxStale = time.Minute
	})
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	calls := b.calls.Load()
	forceLevel(s, brownoutShed)

	// Cached name: still 200.
	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatalf("cached lookup shed: %d", w.Code)
	}
	// Stale would also serve (brownoutShed includes brownoutStale's rule).
	b.Bump()
	if _, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); resp["stale"] != true {
		t.Fatalf("stale lookup shed: %v", resp)
	}
	// Uncached name: 503 with Retry-After, compute never invoked.
	w, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Bin%20Yu", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached lookup status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed 503 without Retry-After")
	}
	if resp["error"] != "overloaded, shedding load" {
		t.Errorf("shed body: %v", resp)
	}
	if got := b.calls.Load(); got != calls {
		t.Errorf("shed lookup reached the backend (%d → %d calls)", calls, got)
	}
	if got := s.reg.Counter("serve.brownout_shed").Value(); got != 1 {
		t.Errorf("brownout_shed = %d, want 1", got)
	}
	// 404s still answer: the negative path costs one index probe, not a
	// compute.
	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", ""); w.Code != http.StatusNotFound {
		t.Fatalf("404 path shed: %d", w.Code)
	}
}

// TestHealthzReportsBrownout: /healthz?verbose=1 carries the ladder state
// (and reports off when the ladder is not enabled).
func TestHealthzReportsBrownout(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), func(o *Options) { o.Brownout = true })
	forceLevel(s, brownoutStale)
	_, resp := doJSON(t, s.Handler(), "GET", "/healthz?verbose=1", "")
	br := resp["brownout"].(map[string]any)
	if br["enabled"] != true || br["state"] != "stale" || br["level"].(float64) != 2 {
		t.Fatalf("brownout status: %v", br)
	}

	s2 := newTestServer(t, newStubBackend("Wei Wang"), nil)
	_, resp = doJSON(t, s2.Handler(), "GET", "/healthz?verbose=1", "")
	br = resp["brownout"].(map[string]any)
	if br["enabled"] != false || br["state"] != "off" {
		t.Fatalf("disabled brownout status: %v", br)
	}
}
