// Package trace is a stdlib-only hierarchical tracing subsystem for the
// DISTINCT pipeline, layered under internal/obs: where the obs registry
// aggregates (counters, stage totals), a Trace records *individual
// decisions* — a tree of timed spans (one per pipeline stage, one per name
// in a batch sweep) carrying typed key-value attributes, plus ordered
// structured events on each span (one per clustering merge, one per sampled
// reference pair with its per-join-path similarity breakdown).
//
// The package follows the obs nil convention: a nil *Trace is the off
// switch. Every method works on a nil Trace or Span and returns
// immediately, so instrumented code carries no enablement branches and the
// disabled path costs a nil check and no allocation (benchmarked in
// bench_test.go). Enabling tracing is handing the pipeline a New(...).
//
// A finished trace exports three ways: WriteChromeJSON emits Chrome
// trace-event JSON loadable in chrome://tracing or Perfetto, WriteJSON
// emits a self-describing span tree, and WriteReport (report.go) renders a
// human-readable run report from that tree.
package trace

import (
	"context"
	"sync"
	"time"
)

// Options configures a new trace.
type Options struct {
	// SamplePairEvery enables sampled pair provenance in the similarity
	// stage: every Nth reference pair (by deterministic triangular pair
	// index — no RNG, so traces reproduce) gets a "pair" event with its
	// per-join-path similarity breakdown. 0 (the default) disables pair
	// provenance; spans and merge events are unaffected.
	SamplePairEvery int
	// RootName names the root span; empty means "run".
	RootName string
}

// Trace owns a tree of spans and their events. All mutation goes through
// one mutex; spans are created per pipeline stage and per name, and events
// per merge or sampled pair, so the lock is never on a per-pair hot path.
type Trace struct {
	mu          sync.Mutex
	start       time.Time
	sampleEvery int

	root      *Span
	nextID    int
	numSpans  int
	numEvents int
}

// Span is one node of the trace tree: a named, timed operation with typed
// attributes, ordered events, and child spans. The nil Span is inert.
type Span struct {
	tr      *Trace
	id      int
	name    string
	startNs int64
	endNs   int64
	ended   bool

	attrs    []Attr
	events   []Event
	children []*Span
}

// Event is one structured occurrence inside a span (a clustering merge, a
// sampled pair, a dendrogram cut).
type Event struct {
	Name  string
	TNs   int64 // nanoseconds since trace start
	Attrs []Attr
}

// New returns an enabled trace whose root span starts now.
func New(opts Options) *Trace {
	t := &Trace{
		start:       time.Now(),
		sampleEvery: opts.SamplePairEvery,
	}
	name := opts.RootName
	if name == "" {
		name = "run"
	}
	t.root = &Span{tr: t, id: 0, name: name}
	t.nextID = 1
	t.numSpans = 1
	return t
}

// sinceLocked returns nanoseconds since trace start; call with t.mu held
// (or from a context where t is private).
func (t *Trace) sinceLocked() int64 { return int64(time.Since(t.start)) }

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SamplePairEvery returns the pair-provenance sampling period (0 when
// disabled or on a nil trace). Hot loops read it once before iterating.
func (t *Trace) SamplePairEvery() int {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// Start opens a child of the root span.
func (t *Trace) Start(name string, attrs ...Attr) *Span {
	return t.Root().Start(name, attrs...)
}

// Finish ends the root span (open child spans keep their own clocks; an
// unended span exports with the trace's final timestamp as its end).
func (t *Trace) Finish() { t.Root().End() }

// Counts reports how many spans and events the trace holds.
func (t *Trace) Counts() (spans, events int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.numSpans, t.numEvents
}

// Start opens a child span. The attrs slice is copied, so callers may pass
// literals without the variadic backing array escaping — that keeps the
// nil fast path allocation-free.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	child := &Span{tr: t, name: name, attrs: append([]Attr(nil), attrs...)}
	t.mu.Lock()
	child.id = t.nextID
	t.nextID++
	t.numSpans++
	child.startNs = t.sinceLocked()
	s.children = append(s.children, child)
	t.mu.Unlock()
	return child
}

// End closes the span; repeated End calls keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.endNs = t.sinceLocked()
	}
	t.mu.Unlock()
}

// SetAttrs appends attributes to the span (copying the variadic slice).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tr
	cp := append([]Attr(nil), attrs...)
	t.mu.Lock()
	s.attrs = append(s.attrs, cp...)
	t.mu.Unlock()
}

// Event appends a structured event to the span, stamped with the current
// trace clock.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tr
	cp := append([]Attr(nil), attrs...)
	t.mu.Lock()
	s.events = append(s.events, Event{Name: name, TNs: t.sinceLocked(), Attrs: cp})
	t.numEvents++
	t.mu.Unlock()
}

// EventAll appends pre-built events in order — used by stages that collect
// events concurrently, sort them deterministically, and attach them once.
// The events' TNs fields are preserved when set (>0), otherwise stamped now.
func (s *Span) EventAll(events []Event) {
	if s == nil || len(events) == 0 {
		return
	}
	t := s.tr
	t.mu.Lock()
	now := t.sinceLocked()
	for _, ev := range events {
		if ev.TNs == 0 {
			ev.TNs = now
		}
		s.events = append(s.events, ev)
	}
	t.numEvents += len(events)
	t.mu.Unlock()
}

// Trace returns the trace the span belongs to (nil on a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// spanKey is the context key a span travels under.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp, so work started under it
// parents its spans there without being handed the span. A nil sp returns
// ctx itself, allocating nothing.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span ctx carries (nil when it carries none).
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ID returns the span's trace-unique id (0 for the root, -1 on nil).
func (s *Span) ID() int {
	if s == nil {
		return -1
	}
	return s.id
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}
