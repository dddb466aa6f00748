package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"distinct/internal/core"
	flightrec "distinct/internal/obs/flight"
	"distinct/internal/obs/trace"
)

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)

	// No client id: one is minted — 16 hex chars.
	w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	id := w.Header().Get("X-Request-ID")
	if len(id) != 16 || !isHex(id) {
		t.Errorf("generated id %q, want 16 hex chars", id)
	}

	// A valid client id is echoed verbatim.
	r := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r.Header.Set("X-Request-ID", "client-id-42")
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, r)
	if got := w2.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("client id not echoed: %q", got)
	}

	// A hostile id (control chars) is replaced, not echoed.
	r3 := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r3.Header.Set("X-Request-ID", "bad\x01id")
	w3 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w3, r3)
	if got := w3.Header().Get("X-Request-ID"); strings.Contains(got, "bad") {
		t.Errorf("hostile id echoed: %q", got)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"

	r := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	tp := w.Header().Get("traceparent")
	tid, flags, ok := parseTraceparent(tp)
	if !ok || tid != traceID || flags != "01" {
		t.Errorf("response traceparent %q: parsed (%q,%q,%v)", tp, tid, flags, ok)
	}
	// Our span id must differ from the client's parent id.
	if strings.Contains(tp, "00f067aa0ba902b7") {
		t.Errorf("response reused the client's span id: %q", tp)
	}

	// A malformed traceparent is ignored: no response traceparent.
	r2 := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r2.Header.Set("traceparent", "00-zzzz-bad-xx")
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, r2)
	if got := w2.Header().Get("traceparent"); got != "" {
		t.Errorf("malformed traceparent echoed as %q", got)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := parseTraceparent(valid); !ok {
		t.Error("valid header rejected")
	}
	for _, bad := range []string{
		"",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-0111", // wrong lengths
	} {
		if _, _, ok := parseTraceparent(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestPerRouteREDMetrics(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	doJSON(t, s.Handler(), "POST", "/v1/batch", `{"names":["Wei Wang"]}`)

	if got := s.reg.Counter("serve.route.name.requests").Value(); got != 2 {
		t.Errorf("route.name.requests = %d", got)
	}
	if got := s.reg.Counter("serve.route.batch.requests").Value(); got != 1 {
		t.Errorf("route.batch.requests = %d", got)
	}
	// A 404 is not a server error.
	if got := s.reg.Counter("serve.route.name.errors").Value(); got != 0 {
		t.Errorf("route.name.errors = %d after a 404", got)
	}
	if got := s.reg.Histogram("serve.route.name.seconds", nil).Count(); got != 2 {
		t.Errorf("route.name.seconds count = %d", got)
	}
	// SLO: three requests, none a server failure.
	if good, total := s.reg.Counter("serve.slo_good").Value(), s.reg.Counter("serve.slo_total").Value(); good != 3 || total != 3 {
		t.Errorf("slo good/total = %d/%d", good, total)
	}
}

func TestFlightRecorderIntegration(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	r := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r.Header.Set("X-Request-ID", "itest-1")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")

	snap := s.flightRec.Snapshot()
	if snap.Total != 2 {
		t.Fatalf("flight total = %d", snap.Total)
	}
	// Newest first: the 404 probe, then the lookup.
	if snap.Recent[0].Status != 404 || snap.Recent[0].Name != "Nobody" {
		t.Errorf("recent[0] = %+v", snap.Recent[0])
	}
	if snap.Recent[1].ID != "itest-1" || snap.Recent[1].Status != 200 || snap.Recent[1].Route != "name" {
		t.Errorf("recent[1] = %+v", snap.Recent[1])
	}
	if snap.Recent[1].Name != "Wei Wang" {
		t.Errorf("recent[1].Name = %q", snap.Recent[1].Name)
	}

	// /debug/requests serves the same snapshot.
	w2, _ := doJSON(t, s.Handler(), "GET", "/debug/requests", "")
	var served flightrec.Snapshot
	if err := json.Unmarshal(w2.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if served.Total != 2 {
		t.Errorf("served snapshot total = %d", served.Total)
	}
}

func TestAccessLogSampling(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, newStubBackend("Wei Wang"), func(o *Options) {
		o.AccessLog = slog.New(slog.NewJSONHandler(&buf, nil))
		o.AccessLogSample = 1000 // effectively: clean 200s never log
	})
	for i := 0; i < 10; i++ {
		doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	}
	if lines := countLines(&buf); lines != 0 {
		t.Errorf("clean fast 200s logged %d lines at sample=1000", lines)
	}
	// Errors always log, whatever the sample.
	doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if lines := countLines(&buf); lines != 1 {
		t.Fatalf("404 logged %d lines, want 1", lines)
	}
	var entry map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &entry); err != nil {
		t.Fatal(err)
	}
	if entry["route"] != "name" || entry["status"] != float64(404) || entry["name"] != "Nobody" {
		t.Errorf("access entry = %v", entry)
	}
	if entry["id"] == "" {
		t.Error("access entry without request id")
	}
}

func TestAccessLogSampleOne(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, newStubBackend("Wei Wang"), func(o *Options) {
		o.AccessLog = slog.New(slog.NewTextHandler(&buf, nil))
		o.AccessLogSample = 1
	})
	for i := 0; i < 5; i++ {
		doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	}
	if lines := countLines(&buf); lines != 5 {
		t.Errorf("sample=1 logged %d of 5", lines)
	}
}

func countLines(buf *bytes.Buffer) int {
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		n++
	}
	return n
}

func TestHealthzVerboseSLO(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), nil)
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")

	// The plain form stays byte-stable.
	w, _ := doJSON(t, s.Handler(), "GET", "/healthz", "")
	if w.Body.String() != "ok\n" {
		t.Errorf("plain healthz body %q", w.Body.String())
	}

	w2, body := doJSON(t, s.Handler(), "GET", "/healthz?verbose=1", "")
	if w2.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("verbose healthz: %d %v", w2.Code, body)
	}
	slo := body["slo"].(map[string]any)
	if slo["total"] != float64(2) || slo["good"] != float64(2) {
		t.Errorf("slo window = %v", slo)
	}
	if slo["availability"] != float64(1) || slo["target"] != DefaultSLOTarget {
		t.Errorf("slo = %v", slo)
	}
}

func TestTailSampledPanicWritesTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	b := newStubBackend("Wei Wang")
	b.onCompute = func(ctx context.Context, name string) ([][]string, *core.Incident, error) {
		panic("chaos")
	}
	s := newTestServer(t, b, func(o *Options) { o.TailDir = dir })

	w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicked request status %d", w.Code)
	}
	snap := s.flightRec.Snapshot()
	if len(snap.Errors) != 1 {
		t.Fatalf("errors lane = %+v", snap.Errors)
	}
	rec := snap.Errors[0]
	if rec.Incident == "" {
		t.Error("errored record has no incident")
	}
	if rec.TraceFile == "" {
		t.Fatal("errored record has no trace artifact")
	}
	if _, err := os.Stat(rec.TraceFile); err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
}

func TestSlowRequestEntersSlowLaneWithTrace(t *testing.T) {
	dir := t.TempDir()
	b := newStubBackend("Wei Wang")
	b.onCompute = func(ctx context.Context, name string) ([][]string, *core.Incident, error) {
		time.Sleep(30 * time.Millisecond)
		return [][]string{{"k1"}}, nil, nil
	}
	s := newTestServer(t, b, func(o *Options) {
		o.TailDir = dir
		o.TailSlow = 10 * time.Millisecond
		o.CacheBytes = -1
	})
	r := httptest.NewRequest("GET", "/v1/name/Wei%20Wang", nil)
	r.Header.Set("X-Request-ID", "slow-1")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)

	snap := s.flightRec.Snapshot()
	if len(snap.Slowest) != 1 || snap.Slowest[0].ID != "slow-1" {
		t.Fatalf("slow lane = %+v", snap.Slowest)
	}
	tf := snap.Slowest[0].TraceFile
	if tf == "" {
		t.Fatal("slow record has no trace artifact")
	}
	if _, err := os.Stat(tf); err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
}

func TestCachedResultCarriesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, newStubBackend("Wei Wang"), func(o *Options) { o.TailDir = dir })
	res1, _, err := s.lookup(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if res1.trace == nil {
		t.Fatal("computed result under TailDir has no trace")
	}
	res2, meta, err := s.lookup(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if !meta.cached {
		t.Fatal("second lookup not cached")
	}
	if res2.trace != nil {
		t.Error("cached result still carries the first request's trace")
	}
}

// TestTailTraceCapturesEngineStages drives a real engine through the
// serving path with tail tracing on: the request's name span travels to the
// engine in ctx, so the written artifact's name span must hold the engine's
// own similarities and cluster stages.
func TestTailTraceCapturesEngineStages(t *testing.T) {
	dir := t.TempDir()
	s := engineServer(t, nil, func(o *Options) {
		o.TailDir = dir
		o.TailSlow = time.Nanosecond // every request tail-samples
		o.CacheBytes = -1
	})
	if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Wei%20Wang", ""); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	snap := s.flightRec.Snapshot()
	if len(snap.Slowest) != 1 || snap.Slowest[0].TraceFile == "" {
		t.Fatalf("slow lane = %+v, want one record with a trace artifact", snap.Slowest)
	}
	f, err := trace.ReadFileJSON(snap.Slowest[0].TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var nameSpan *trace.SpanNode
	for _, c := range f.Root.Children {
		if c.Name == trace.NameSpanPrefix+"Wei Wang" {
			nameSpan = c
		}
	}
	if nameSpan == nil {
		t.Fatalf("artifact has no name span: %+v", f.Root)
	}
	children := make(map[string]bool)
	for _, c := range nameSpan.Children {
		children[c.Name] = true
	}
	for _, want := range []string{"similarities", "cluster"} {
		if !children[want] {
			t.Errorf("name span lacks a %q child; children: %v", want, children)
		}
	}
}
