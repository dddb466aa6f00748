package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served.pairs").Add(12)
	r.Stage("served.stage").Start().End(5)

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// /metrics returns the snapshot as valid JSON.
	var snap Snapshot
	if err := json.Unmarshal(getBody(t, ts.URL+"/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Counters["served.pairs"] != 12 {
		t.Errorf("/metrics counters = %+v", snap.Counters)
	}
	if snap.Stages["served.stage"].Items != 5 {
		t.Errorf("/metrics stages = %+v", snap.Stages)
	}

	// /debug/vars is expvar-shaped JSON: one object including the standard
	// published vars and this registry under "distinct".
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	for _, key := range []string{"cmdline", "memstats", "distinct"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars misses %q (has %d keys)", key, len(vars))
		}
	}
	var published Snapshot
	if err := json.Unmarshal(vars["distinct"], &published); err != nil {
		t.Fatalf("distinct var is not a snapshot: %v", err)
	}
	if published.Counters["served.pairs"] != 12 {
		t.Errorf("published snapshot = %+v", published)
	}

	// pprof index and a concrete profile both serve.
	if body := getBody(t, ts.URL+"/debug/pprof/"); len(body) == 0 {
		t.Error("pprof index is empty")
	}
	if body := getBody(t, ts.URL+"/debug/pprof/heap"); len(body) == 0 {
		t.Error("heap profile is empty")
	}
	if body := getBody(t, ts.URL+"/debug/pprof/goroutine?debug=1"); len(body) == 0 {
		t.Error("goroutine profile is empty")
	}
}

func TestServeLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("live").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snap Snapshot
	if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/metrics"), &snap); err != nil {
		t.Fatalf("served /metrics is not valid JSON: %v", err)
	}
	if snap.Counters["live"] != 1 {
		t.Errorf("served counters = %+v", snap.Counters)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestCloseDrainsInFlightRequests is the regression test for the graceful
// shutdown: a request in flight when Close is called must complete instead
// of being cut off, and Close must block until it has.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// A naturally slow request: the execution tracer streams for a full
	// second before the handler returns.
	type result struct {
		body []byte
		code int
		err  error
	}
	started := make(chan struct{})
	done := make(chan result, 1)
	go func() {
		close(started)
		resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/trace?seconds=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{body: b, code: resp.StatusCode, err: err}
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the request reach the handler

	closeStart := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	closeDur := time.Since(closeStart)

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Errorf("in-flight request status = %d", res.code)
	}
	if len(res.body) == 0 {
		t.Error("in-flight request body is empty")
	}
	// Close must have waited for the ~900ms the tracer still had to run.
	if closeDur < 500*time.Millisecond {
		t.Errorf("Close returned after %v; did not drain the in-flight request", closeDur)
	}

	// After shutdown the listener no longer accepts connections.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting requests after Close")
	}
}

func TestHandlerOnNilRegistry(t *testing.T) {
	var r *Registry
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	var snap Snapshot
	if err := json.Unmarshal(getBody(t, ts.URL+"/metrics"), &snap); err != nil {
		t.Fatalf("nil-registry /metrics is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 0 {
		t.Errorf("nil-registry snapshot = %+v", snap)
	}
}
