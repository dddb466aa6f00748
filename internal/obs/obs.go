// Package obs is a stdlib-only observability layer for the DISTINCT
// pipeline: atomic counters, gauges, and fixed-bucket histograms held in a
// named registry, plus a stage-span API that records wall time, items
// processed, and heap allocations for each pipeline stage.
//
// The whole package is nil-tolerant: a nil *Registry hands out nil metric
// handles whose methods are no-ops, so instrumented code needs no "is
// observability on?" branches and pays only an inlined nil check when it is
// off. Enabling observability is handing the pipeline a NewRegistry().
//
// Handles are cheap to look up but cheaper to keep: hot paths should
// resolve their Counter/Histogram once and hold the pointer, as all update
// methods are lock-free atomics safe for concurrent use.
//
// Snapshot serializes the registry's current state; Serve (serve.go)
// exposes it over HTTP together with expvar and pprof.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic int64. The nil Counter
// discards updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 level. The nil Gauge discards
// updates.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v as the gauge's level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the level by delta (compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level (0 for the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are ascending
// upper bounds; an observation lands in the first bucket whose bound is >=
// the value, or in the implicit overflow bucket past the last bound. The
// nil Histogram discards observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DurationBuckets is the default bucket layout for stage and per-item
// latencies, in seconds: 100µs to 30s in roughly ×3 steps.
func DurationBuckets() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (~12); linear scan beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 for the nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Stage aggregates the spans of one pipeline stage.
type Stage struct {
	count  atomic.Int64 // completed spans
	wallNs atomic.Int64
	items  atomic.Int64
	allocs atomic.Int64 // heap objects allocated while spans were open
	bytes  atomic.Int64 // heap bytes allocated while spans were open
}

// Span measures one invocation of a pipeline stage: wall time plus the
// process-wide heap allocation delta while it was open (an upper bound on
// the stage's own allocations when other goroutines run concurrently). The
// zero Span (from a nil Stage) is inert and its End returns immediately
// without reading any clock.
type Span struct {
	stage       *Stage
	start       time.Time
	startAllocs uint64
	startBytes  uint64
}

// readAllocs samples the runtime's cumulative heap allocation metrics.
// runtime/metrics reads are cheap (no stop-the-world), so spans can wrap
// even modestly sized stages.
func readAllocs() (objects, bytes uint64) {
	s := make([]metrics.Sample, 2)
	s[0].Name = "/gc/heap/allocs:objects"
	s[1].Name = "/gc/heap/allocs:bytes"
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		objects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		bytes = s[1].Value.Uint64()
	}
	return objects, bytes
}

// End completes the span, crediting the stage with the elapsed wall time,
// the allocation delta, and items processed.
func (s Span) End(items int) {
	if s.stage == nil {
		return
	}
	wall := time.Since(s.start)
	objs, bytes := readAllocs()
	s.stage.count.Add(1)
	s.stage.wallNs.Add(wall.Nanoseconds())
	s.stage.items.Add(int64(items))
	s.stage.allocs.Add(int64(objs - s.startAllocs))
	s.stage.bytes.Add(int64(bytes - s.startBytes))
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled state: every lookup
// returns a nil handle and Snapshot returns the zero Snapshot.
type Registry struct {
	mu     sync.Mutex // guards the maps; metric updates are atomic
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	stages map[string]*Stage
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		stages: make(map[string]*Stage),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (nil bounds means DurationBuckets). Later calls
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets()
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Stage returns the named stage aggregate, creating it on first use (nil on
// a nil registry). Callers resolve it once and Start spans on the handle, so
// opening a span never takes the registry mutex. A stage appears in
// snapshots once its first span has ended.
func (r *Registry) Stage(name string) *Stage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.stages[name]
	if !ok {
		s = &Stage{}
		r.stages[name] = s
	}
	return s
}

// Start opens a span on the stage. On a nil Stage it returns the inert zero
// Span without touching the clock.
func (s *Stage) Start() Span {
	if s == nil {
		return Span{}
	}
	objs, bytes := readAllocs()
	return Span{
		stage:       s,
		start:       time.Now(),
		startAllocs: objs,
		startBytes:  bytes,
	}
}

// HistogramSnapshot is the serialized state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	// Counts has one entry per bound plus a final overflow bucket.
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	// P50/P95/P99 are quantile estimates interpolated from the bucket
	// counts (see Quantile). Zero when the histogram is empty.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// interpolating linearly within the bucket that holds the target rank — the
// same estimate Prometheus's histogram_quantile computes. The first bucket
// interpolates from zero; ranks landing in the overflow bucket clamp to the
// last bound, as the histogram does not know how far past it values went.
// Returns 0 for an empty histogram.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count <= 0 || len(hs.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(hs.Count)
	var cum float64
	for i, c := range hs.Counts {
		if i >= len(hs.Bounds) {
			return hs.Bounds[len(hs.Bounds)-1]
		}
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = hs.Bounds[i-1]
			}
			upper := hs.Bounds[i]
			return lower + (upper-lower)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return hs.Bounds[len(hs.Bounds)-1]
}

// fillQuantiles stamps the snapshot's P50/P95/P99 estimates.
func (hs *HistogramSnapshot) fillQuantiles() {
	hs.P50 = hs.Quantile(0.50)
	hs.P95 = hs.Quantile(0.95)
	hs.P99 = hs.Quantile(0.99)
}

// StageSnapshot is the serialized state of one pipeline stage.
type StageSnapshot struct {
	Count  int64 `json:"count"`
	WallNs int64 `json:"wall_ns"`
	Items  int64 `json:"items"`
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
}

// Snapshot is a point-in-time copy of a registry. Map keys serialize in
// sorted order under encoding/json, so snapshots diff cleanly.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Stages     map[string]StageSnapshot     `json:"stages,omitempty"`
}

// Snapshot copies the registry's current state. Individual metric reads are
// atomic; the snapshot as a whole is not a consistent cut across metrics
// updated concurrently, which is fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.counts) > 0 {
		snap.Counters = make(map[string]int64, len(r.counts))
		for name, c := range r.counts {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.count.Load(),
				Sum:    math.Float64frombits(h.sum.Load()),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			hs.fillQuantiles()
			snap.Histograms[name] = hs
		}
	}
	for name, s := range r.stages {
		// Handles are resolved ahead of use; a stage that has not completed
		// a span yet stays out of the snapshot.
		count := s.count.Load()
		if count == 0 {
			continue
		}
		if snap.Stages == nil {
			snap.Stages = make(map[string]StageSnapshot, len(r.stages))
		}
		snap.Stages[name] = StageSnapshot{
			Count:  count,
			WallNs: s.wallNs.Load(),
			Items:  s.items.Load(),
			Allocs: s.allocs.Load(),
			Bytes:  s.bytes.Load(),
		}
	}
	return snap
}

// StageNames returns the snapshot's stage names sorted, for stable reports.
func (s Snapshot) StageNames() []string {
	names := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile dumps the registry snapshot to a file (the -metrics flag of the
// CLIs). A nil registry writes the empty snapshot, so callers need no
// enablement check.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteText renders the snapshot as a compact human-readable listing:
// counters and gauges one per line, histograms with count/sum and the
// p50/p95/p99 estimates, stages with wall time and items. Keys print in
// sorted order, so output diffs cleanly between runs.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		pr("counter %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pr("gauge   %-40s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pr("hist    %-40s count=%d sum=%.6g p50=%.3g p95=%.3g p99=%.3g\n",
			name, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
	for _, name := range s.StageNames() {
		st := s.Stages[name]
		pr("stage   %-40s count=%d wall=%s items=%d allocs=%d bytes=%d\n",
			name, st.Count, time.Duration(st.WallNs), st.Items, st.Allocs, st.Bytes)
	}
	return err
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
