package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pairs")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if r.Counter("pairs") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("level")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %v, want 2", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	// 0.5 and 1 land in bucket <=1; 5 in <=10; 50 in <=100; 500 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Sum != 556.5 {
		t.Errorf("histogram sum = %v, want 556.5", hs.Sum)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(1)
	r.Histogram("z", nil).Observe(1)
	r.Histogram("z", nil).ObserveDuration(time.Second)
	sp := r.Stage("stage").Start()
	sp.End(100)
	if c := r.Counter("x").Value(); c != 0 {
		t.Errorf("nil counter value = %d", c)
	}
	if g := r.Gauge("y").Value(); g != 0 {
		t.Errorf("nil gauge value = %v", g)
	}
	if n := r.Histogram("z", nil).Count(); n != 0 {
		t.Errorf("nil histogram count = %d", n)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Stages) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if got := buf.String(); got != "{}\n" {
		t.Errorf("nil snapshot JSON = %q", got)
	}
}

func TestSpanRecordsStage(t *testing.T) {
	r := NewRegistry()
	sp := r.Stage("work").Start()
	// Allocate well past the checked threshold: the runtime's allocation
	// stats are gathered from per-P caches and a read may miss a not-yet
	// flushed tail, so the delta can undercount by a few size classes.
	sink := make([][]byte, 400)
	for i := range sink {
		sink[i] = make([]byte, 1024)
	}
	_ = sink
	time.Sleep(2 * time.Millisecond)
	sp.End(42)

	snap := r.Snapshot()
	st, ok := snap.Stages["work"]
	if !ok {
		t.Fatalf("stage missing from snapshot: %+v", snap)
	}
	if st.Count != 1 || st.Items != 42 {
		t.Errorf("stage count/items = %d/%d, want 1/42", st.Count, st.Items)
	}
	if st.WallNs < (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("stage wall = %dns, want >= 1ms", st.WallNs)
	}
	if st.Allocs <= 0 || st.Bytes < 100*1024 {
		t.Errorf("stage allocs/bytes = %d/%d, want positive / >= 100KiB", st.Allocs, st.Bytes)
	}
	if names := snap.StageNames(); len(names) != 1 || names[0] != "work" {
		t.Errorf("StageNames = %v", names)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.Stage("s").Start().End(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.b"] != 7 || snap.Gauges["g"] != 1.5 {
		t.Errorf("round-tripped snapshot = %+v", snap)
	}
	if snap.Stages["s"].Items != 3 {
		t.Errorf("round-tripped stage = %+v", snap.Stages["s"])
	}
}

// TestConcurrentHammer drives every metric kind plus Snapshot from many
// goroutines at once; it exists to fail under -race if any path is unsafe.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.hist", []float64{1, 2, 4, 8})
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Counter("hammer.count2").Add(2)
				r.Gauge("hammer.gauge").Add(1)
				h.Observe(float64(i % 10))
				sp := r.Stage("hammer.stage").Start()
				sp.End(1)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["hammer.count"]; got != goroutines*iters {
		t.Errorf("hammer.count = %d, want %d", got, goroutines*iters)
	}
	if got := snap.Counters["hammer.count2"]; got != 2*goroutines*iters {
		t.Errorf("hammer.count2 = %d, want %d", got, 2*goroutines*iters)
	}
	if got := snap.Gauges["hammer.gauge"]; got != goroutines*iters {
		t.Errorf("hammer.gauge = %v, want %d", got, goroutines*iters)
	}
	hs := snap.Histograms["hammer.hist"]
	if hs.Count != goroutines*iters {
		t.Errorf("hammer.hist count = %d, want %d", hs.Count, goroutines*iters)
	}
	var bucketSum int64
	for _, n := range hs.Counts {
		bucketSum += n
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, hs.Count)
	}
	if st := snap.Stages["hammer.stage"]; st.Count != goroutines*iters || st.Items != goroutines*iters {
		t.Errorf("hammer.stage = %+v", st)
	}
}
