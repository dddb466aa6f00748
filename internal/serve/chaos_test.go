// Chaos tests for the serving path: faults injected with internal/fault
// must surface as incident-bearing HTTP responses — a panic is a 500 with
// an incident body, a blown deadline is a degraded 200 — and never as a
// dead process. Graceful shutdown must drain in-flight requests.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/trainset"
)

var (
	chaosOnce sync.Once
	chaosEng  *core.Engine
	chaosErr  error
)

// chaosEngine returns a small trained engine shared by the chaos tests
// (training once keeps the suite fast; the engine is concurrency-safe).
// The world mirrors internal/core's test world.
func chaosEngine(t *testing.T) *core.Engine {
	t.Helper()
	chaosOnce.Do(func() {
		cfg := dblp.DefaultConfig()
		cfg.Seed = 3
		cfg.Communities = 4
		cfg.AuthorsPerCommunity = 60
		cfg.PapersPerAuthor = 3
		cfg.Ambiguous = []dblp.AmbiguousName{
			{Name: "Wei Wang", RefsPerAuthor: []int{12, 8, 5}},
			{Name: "Bin Yu", RefsPerAuthor: []int{7, 5}},
		}
		w, err := dblp.Generate(cfg)
		if err != nil {
			chaosErr = err
			return
		}
		eng, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
			RefRelation: dblp.ReferenceRelation,
			RefAttr:     dblp.ReferenceAttr,
			SkipExpand:  []string{dblp.TitleAttr},
			Supervised:  true,
			Measure:     cluster.Combined,
			MinSim:      0.005,
			Train: trainset.Options{
				NumPositive: 150, NumNegative: 150, Seed: 11,
				Exclude: w.AmbiguousNames(),
			},
		})
		if err != nil {
			chaosErr = err
			return
		}
		if _, err := eng.TrainCtx(context.Background()); err != nil {
			chaosErr = err
			return
		}
		chaosEng = eng
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosEng
}

func engineServer(t *testing.T, f *fault.Registry, mod func(*Options)) *Server {
	t.Helper()
	return newTestServer(t, NewEngineBackend(chaosEngine(t), "paper-key"), func(o *Options) {
		o.Fault = f
		if mod != nil {
			mod(o)
		}
	})
}

// TestChaosEnginePanicIs500WithIncident: a panic injected deep in the
// engine (the clustering stage) comes back as a 500 whose body carries the
// incident — reason, stage, error — and the server keeps serving: the very
// next request, with the one-shot rule spent, disambiguates cleanly.
func TestChaosEnginePanicIs500WithIncident(t *testing.T) {
	f := fault.NewRegistry(1)
	f.Set("core.cluster", fault.Rule{OnHit: 1, Panic: "injected cluster panic"})
	s := engineServer(t, f, nil)

	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", w.Code, w.Body.String())
	}
	inc, ok := body["incident"].(map[string]any)
	if !ok {
		t.Fatalf("500 without incident body: %v", body)
	}
	if inc["reason"] != "panic" {
		t.Errorf("incident reason = %v", inc["reason"])
	}
	// The conservative fallback still accounts for every reference.
	if groups, ok := body["groups"].([]any); !ok || len(groups) != 1 {
		t.Errorf("fallback groups = %v, want one conservative group", body["groups"])
	}

	// The server survived: the next request is clean and splits the name.
	w2, body2 := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w2.Code != http.StatusOK {
		t.Fatalf("post-panic status %d", w2.Code)
	}
	if body2["incident"] != nil {
		t.Errorf("post-panic incident: %v", body2["incident"])
	}
	if groups := body2["groups"].([]any); len(groups) < 2 {
		t.Errorf("post-panic groups = %d, want the homonym split", len(groups))
	}
}

// TestChaosServeLayerPanicRecovered: a panic injected at the serving
// layer's own fault point (outside the engine's ladder) is recovered by the
// compute guard — 500 with an incident, process alive.
func TestChaosServeLayerPanicRecovered(t *testing.T) {
	b := newStubBackend("Wei Wang")
	f := fault.NewRegistry(1)
	f.Set("serve.compute", fault.Rule{OnHit: 1, Panic: "injected serve panic"})
	s := newTestServer(t, b, func(o *Options) { o.Fault = f })

	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	inc := body["incident"].(map[string]any)
	if inc["reason"] != "panic" || inc["stage"] != "serve.compute" {
		t.Errorf("incident = %v", inc)
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Errorf("serve.panics = %d", got)
	}
	w2, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w2.Code != http.StatusOK {
		t.Fatalf("post-panic status %d, server did not survive", w2.Code)
	}
}

// TestChaosDelayPastDeadlineDegrades: an injected delay blows the per-name
// budget; the engine retries on the degraded view and the response is a 200
// with degraded:true and the incident explaining why — the client gets an
// answer, honestly labeled. With the brownout ladder on and at "normal" the
// retry still runs: the ladder is the only overload input to it, and it
// only withholds the retry by forcing the first attempt onto the cut view.
func TestChaosDelayPastDeadlineDegrades(t *testing.T) {
	for _, brownout := range []bool{false, true} {
		t.Run(fmt.Sprintf("brownout=%v", brownout), func(t *testing.T) {
			f := fault.NewRegistry(1)
			f.Set("core.similarities", fault.Rule{OnHit: 1, Delay: 10 * time.Second})
			s := engineServer(t, f, func(o *Options) {
				o.NameTimeout = 150 * time.Millisecond
				o.Brownout = brownout
			})

			w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200; body %s", w.Code, w.Body.String())
			}
			if body["degraded"] != true {
				t.Fatalf("degraded flag missing: %v", body)
			}
			inc, ok := body["incident"].(map[string]any)
			if !ok {
				t.Fatalf("degraded response without incident: %v", body)
			}
			if r := inc["reason"]; r != "degraded" && r != "timeout" {
				t.Errorf("incident reason = %v", r)
			}
			// The blown first attempt plus the degraded retry.
			if got := f.Hits("core.similarities"); got != 2 {
				t.Errorf("similarities attempted %d times, want 2 (attempt + retry)", got)
			}
			if got := s.reg.Counter("serve.degraded").Value(); got != 1 {
				t.Errorf("serve.degraded = %d", got)
			}
			if got := s.reg.Counter("serve.brownout_forced_degraded").Value(); got != 0 {
				t.Errorf("serve.brownout_forced_degraded = %d at level normal", got)
			}
		})
	}
}

// TestChaosQuotaFaultForces429: an injected failure at "serve.quota" forces
// the throttle path — 429 with Retry-After — without crafting real bucket
// exhaustion, and the admitted slot is released so the client is not leaked
// a phantom in-flight request (the next request, rule spent, succeeds).
func TestChaosQuotaFaultForces429(t *testing.T) {
	b := newStubBackend("Wei Wang")
	f := fault.NewRegistry(1)
	f.Set("serve.quota", fault.Rule{OnHit: 1})
	s := newTestServer(t, b, func(o *Options) {
		o.Fault = f
		o.QuotaRPS = 1000
		o.QuotaConcurrency = 1 // a leaked slot would block the follow-up
	})

	w, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("injected 429 without Retry-After")
	}
	if body["error"] != "client quota exceeded" {
		t.Errorf("body: %v", body)
	}
	if got := f.Hits("serve.quota"); got != 1 {
		t.Errorf("serve.quota hits = %d", got)
	}
	// Rule spent: the same client (and its concurrency slot of 1) sails
	// through — the injected throttle released what it acquired.
	w2, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w2.Code != http.StatusOK {
		t.Fatalf("post-fault status %d, quota slot leaked", w2.Code)
	}
}

// TestChaosRevalidateFaultKeepsStale: an injected error at
// "serve.revalidate" kills the background recompute behind a stale hit. The
// stale entry must keep serving — a failed revalidation degrades freshness,
// never availability — and the next stale hit launches a fresh flight that,
// rule spent, lands the new version.
func TestChaosRevalidateFaultKeepsStale(t *testing.T) {
	s := checkRevalidateFailureKeepsStale(t, fault.Rule{OnHit: 1})
	if got := s.reg.Counter("serve.panics").Value(); got != 0 {
		t.Errorf("serve.panics = %d, want 0", got)
	}
}

// TestChaosRevalidatePanicKeepsStale: an injected panic at
// "serve.revalidate" fires in the background flight before
// Server.compute's own recover applies. The flight goroutine must recover
// it — counted in serve.panics, the process alive — and the stale entry
// keeps serving until the relaunch lands the new version.
func TestChaosRevalidatePanicKeepsStale(t *testing.T) {
	s := checkRevalidateFailureKeepsStale(t, fault.Rule{OnHit: 1, Panic: "boom"})
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}
}

// checkRevalidateFailureKeepsStale warms a name, bumps the version, and
// fails the first revalidation with rule at "serve.revalidate": the stale
// entry must keep serving and the second revalidation must publish the new
// version. It returns the server for further checks.
func checkRevalidateFailureKeepsStale(t *testing.T, rule fault.Rule) *Server {
	t.Helper()
	b := newStubBackend("Wei Wang")
	f := fault.NewRegistry(1)
	f.Set("serve.revalidate", rule)
	s := newTestServer(t, b, func(o *Options) {
		o.Fault = f
		o.MaxStale = time.Minute
	})

	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "") // warm at v0
	b.Bump()

	// Stale hit: served stale, revalidation launched into the injected fault.
	_, body := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if body["stale"] != true {
		t.Fatalf("first post-bump response not stale: %v", body)
	}
	waitUntil(t, "failed revalidation flight drained", func() bool {
		return f.Hits("serve.revalidate") == 1 && s.flights.inflight() == 0
	})

	// Still serving stale — the failure cost freshness only — and this hit's
	// relaunch (rule spent) succeeds and publishes the new version.
	_, body = doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if body["stale"] != true {
		t.Fatalf("stale entry gone after failed revalidation: %v", body)
	}
	waitUntil(t, "second revalidation published", func() bool {
		_, resp := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
		return resp["version"].(float64) == 1 && resp["stale"] == nil
	})
	if got := s.reg.Counter("serve.revalidations").Value(); got != 2 {
		t.Errorf("serve.revalidations = %d, want 2", got)
	}
	return s
}

// TestChaosBatchItemPanic: a panic in one name's lookup outside the engine
// (here the backend's NumRefs) must become that item's 500, counted in
// serve.panics, while every other name of the batch still answers and the
// process lives.
func TestChaosBatchItemPanic(t *testing.T) {
	b := newStubBackend("Wei Wang", "Bad Name", "Jiawei Han")
	b.onNumRefs = func(name string) {
		if name == "Bad Name" {
			panic("boom")
		}
	}
	s := newTestServer(t, b, func(o *Options) { o.BatchFanout = 2 })
	w, body := doJSON(t, s.Handler(), "POST", "/v1/batch",
		`{"names":["Wei Wang","Bad Name","Jiawei Han","Bad Name"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	results := body["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("%d results, want 4: %v", len(results), body)
	}
	for _, r := range results {
		item := r.(map[string]any)
		if item["name"] == "Bad Name" {
			if item["status"] != float64(http.StatusInternalServerError) || !strings.Contains(item["error"].(string), "boom") {
				t.Errorf("panicking item = %v, want a 500 carrying the panic", item)
			}
			continue
		}
		if item["error"] != nil || len(item["groups"].([]any)) != 2 {
			t.Errorf("healthy item = %v, want its two groups", item)
		}
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Errorf("serve.panics = %d, want 1 (the repeated name is looked up once)", got)
	}
}

// TestDrainWaitsForInflight extends the obs drain test to the serving
// stack: a slow in-flight request completes with its real response while
// new requests get 503, and Drain returns only after the last in-flight
// request is done. Runs over a real listener via obs.ServeHandler — the
// exact stack cmd/distinctd ships.
func TestDrainWaitsForInflight(t *testing.T) {
	b := newStubBackend("Wei Wang")
	b.block = make(chan struct{})
	b.started = make(chan string, 1)
	s := newTestServer(t, b, nil)
	srv, err := obs.ServeHandler("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	type reply struct {
		code int
		body []byte
		err  error
	}
	slow := make(chan reply, 1)
	go func() {
		resp, err := http.Get(base + "/v1/name/Wei%20Wang")
		if err != nil {
			slow <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		slow <- reply{code: resp.StatusCode, body: raw}
	}()
	<-b.started // the slow request is inside its computation

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()

	// New requests are refused while the drain waits.
	waitUntil(t, "drain gate closed", func() bool {
		resp, err := http.Get(base + "/v1/name/Wei%20Wang")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned (%v) with a request still in flight", err)
	default:
	}

	close(b.block)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-slow
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request: code=%d err=%v", r.code, r.err)
	}
	var body map[string]any
	if err := json.Unmarshal(r.body, &body); err != nil {
		t.Fatalf("in-flight response body: %v", err)
	}
	if body["name"] != "Wei Wang" {
		t.Errorf("in-flight response: %v", body)
	}
}

// TestChaosHandlerPanic: a panic in a single-name lookup outside the
// flight (here the backend's NumRefs, on the handler goroutine) must answer
// 500, count in serve.panics and release the client's quota slot, with the
// registry and flight recorder off and on alike: with one concurrent
// request per client, the same client's next healthy lookup must still get
// a 200.
// Served over a real listener, where an unrecovered panic drops the
// connection.
func TestChaosHandlerPanic(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		t.Run(fmt.Sprintf("instrumented=%v", instrumented), func(t *testing.T) {
			b := newStubBackend("Wei Wang", "Bad Name")
			b.onNumRefs = func(name string) {
				if name == "Bad Name" {
					panic("boom")
				}
			}
			reg := obs.NewRegistry()
			s := newTestServer(t, b, func(o *Options) {
				o.QuotaRPS, o.QuotaBurst, o.QuotaConcurrency = 1000, 1000, 1
				if !instrumented {
					o.Obs, o.FlightRecords = nil, -1
				} else {
					o.Obs = reg
				}
			})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			get := func(name string) (int, string) {
				req, err := http.NewRequest("GET", srv.URL+"/v1/name/"+url.PathEscape(name), nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Api-Key", "one-client")
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatalf("GET %s: %v", name, err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, string(body)
			}
			if code, body := get("Bad Name"); code != http.StatusInternalServerError || !strings.Contains(body, "boom") {
				t.Fatalf("panicking lookup: %d %s, want a 500 carrying the panic", code, body)
			}
			if code, body := get("Wei Wang"); code != http.StatusOK {
				t.Fatalf("healthy lookup after the panic: %d %s, want 200", code, body)
			}
			if got := reg.Counter("serve.panics").Value(); instrumented && got != 1 {
				t.Errorf("serve.panics = %d, want 1", got)
			}
		})
	}
}
