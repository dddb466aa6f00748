package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/trainset"
)

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's state from nothing: world, trained engine
	// and, for a server, what it computes before taking requests.
	setup(ctx context.Context) error
	// phase runs timed operations for about seconds, after untimed warm-up
	// ops where the workload needs them. A traced probe wraps each call
	// into a layer in a span and collects the program's own counters; the
	// zero probe adds nothing.
	phase(ctx context.Context, seconds float64, p probe) (*phaseResult, error)
	// fixture returns the state setup built; after a phase its engine is
	// warm.
	fixture() *fixture
}

// probe carries a traced run's instruments. Both fields are nil-safe, so
// the zero probe is the untraced run.
type probe struct {
	span *trace.Span   // parent of the phase's spans
	reg  *obs.Registry // receives the program's counters
}

// phaseResult is what a timed phase measured.
type phaseResult struct {
	lat       []time.Duration // one per timed operation
	busy      time.Duration   // wall time spent in timed operations
	alloc     uint64          // heap bytes allocated during them
	opAlloc   []float64       // per-op allocation, where ops are timed one by one
	attempted int
	failed    int
	problems  []string
	engine    []time.Duration   // traced lookups: each engine call
	extra     map[string]metric // workload-specific informational metrics
}

// allocPerOp is the heap allocation per op. It is printed with the
// end-to-end metrics but bounded nowhere: it moves with where collections
// land, because a collection empties the engine's pools and refilling them
// costs up to a few tens of MB; on a 2-CPU machine that spread it by a
// fifth between runs of the same lookups. On the sweep, where ops are
// timed one by one, it is the median op.
func (ph *phaseResult) allocPerOp() float64 {
	if len(ph.opAlloc) > 0 {
		return median(ph.opAlloc)
	}
	return float64(ph.alloc) / float64(max(1, len(ph.lat)))
}

func (ph *phaseResult) fail(n int, problem string) {
	ph.failed += n
	ph.problems = append(ph.problems, problem)
}

// fixture is the state every workload starts from: the generated world
// and an engine trained on it with the paper's defaults.
type fixture struct {
	world *dblp.World
	cfg   core.Config
	eng   *core.Engine
	model *core.Model
	names []string // names with at least two references, sorted
}

// worldConfig is the generated world: dblp.DefaultConfig's, which is the
// same for every run seed. Worlds from different generator seeds differ in
// their few giant colliding names, which moves the sweep by a quarter;
// the run seed varies only the request streams.
func worldConfig(c config) dblp.Config {
	wc := dblp.DefaultConfig()
	if c.communities > 0 {
		wc.Communities = c.communities
	}
	if c.authors > 0 {
		wc.AuthorsPerCommunity = c.authors
	}
	return wc
}

// trainSeed is the training-sample seed, cmd/distinct's default. It is the
// same for every run seed: the learned weights decide how much work each
// name costs, and samples from different seeds moved lookup throughput by
// up to a third.
const trainSeed = 1

func trainOptions(c config, w *dblp.World) trainset.Options {
	return trainset.Options{
		NumPositive: c.trainPairs,
		NumNegative: c.trainPairs,
		Exclude:     w.AmbiguousNames(),
		Seed:        trainSeed,
	}
}

// newFixture generates the world, opens an engine on it and trains it. A
// non-nil reg and tr receive the engine's set-up stages and spans; the
// fixture's cfg carries neither.
func newFixture(ctx context.Context, c config, reg *obs.Registry, tr *trace.Trace) (*fixture, error) {
	sp := tr.Start("dblp.generate")
	w, err := dblp.Generate(worldConfig(c))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	cfg := core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Train:       trainOptions(c, w),
	}
	inst := cfg
	inst.Obs, inst.Trace = reg, tr
	eng, err := core.NewEngineCtx(ctx, w.DB, inst)
	if err != nil {
		return nil, fmt.Errorf("opening engine: %w", err)
	}
	if _, err := eng.TrainCtx(ctx); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return &fixture{
		world: w,
		cfg:   cfg,
		eng:   eng,
		model: eng.ExportModel(),
		names: eng.NamesWithRefs(2),
	}, nil
}

func newWorkload(c config) workload {
	switch c.workload {
	case "sweep":
		return &sweepRun{c: c}
	case "lookup-cold":
		return &lookupRun{c: c}
	default:
		return &lookupRun{c: c, hot: true}
	}
}

// runWorkload sets the workload up c.setups times, then measures it: the
// end-to-end metrics, or, in a traced run, the per-layer metrics.
func runWorkload(ctx context.Context, c config, out io.Writer) (*report, error) {
	wl := newWorkload(c)
	r := newReport(c.workload)
	traced := c.traceDir != ""
	setups := c.setups
	if traced {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC() // the previous set-up's state is garbage; collect it untimed
		t0 := time.Now()
		if err := wl.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	heapMB := liveHeapMB()
	if traced {
		if err := runTraced(ctx, c, wl, r, out); err != nil {
			return nil, err
		}
	} else {
		ph, err := wl.phase(ctx, c.seconds, probe{})
		if err != nil {
			return nil, err
		}
		addEndToEnd(r, setupS, heapMB, ph)
	}
	r.finish()
	return r, nil
}

func addEndToEnd(r *report, setupS []float64, heapMB float64, ph *phaseResult) {
	r.count(ph.attempted, ph.failed, ph.problems)
	n := len(ph.lat)
	lat := sortedDurations(ph.lat)
	r.add("setup_s", median(setupS), "s", len(setupS))
	r.add("heap_mb", heapMB, "MB", 0)
	r.add("ops_per_s", float64(n)/ph.busy.Seconds(), "1/s", n)
	r.add("op_p50_ms", ms(percentile(lat, 0.50)), "ms", n)
	r.add("op_p99_ms", ms(percentile(lat, 0.99)), "ms", n)
	r.add("op_p999_ms", ms(percentile(lat, 0.999)), "ms", n)
	r.add("alloc_bytes_per_op", ph.allocPerOp(), "B", n)
	for _, name := range sortedKeys(ph.extra) {
		m := ph.extra[name]
		r.add(name, m.Value, m.Unit, m.N)
	}
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces collection, then reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle also drops what sync.Pools kept as victims
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// forEach calls f(i) for i in [0, n) on workers goroutines and returns the
// first error.
func forEach(n, workers int, f func(i int) error) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errOnce.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedDurations(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

func sumDurations(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (its default "exclusive"
// method), so the A/A spreads match what the bounds are checked with.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
