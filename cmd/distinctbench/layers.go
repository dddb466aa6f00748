package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/serve"
	"distinct/internal/sim"
)

// runTraced is the per-layer run. It runs the timed phase twice, for half
// the time each, first bare and then traced, and reports the difference as
// the tracing overhead. It then sets up once more under the engine's own
// stage instruments, replays the sweep one layer at a time, each call into
// a layer wrapped in a span from this file, and prices the serving layer
// from the traced phase (for the sweep, which does not serve, from a
// replay of its names through a fresh server).
func runTraced(ctx context.Context, c config, wl workload, r *report, out io.Writer) error {
	half := c.seconds / 2
	bare, err := wl.phase(ctx, half, probe{})
	if err != nil {
		return err
	}
	r.count(bare.attempted, bare.failed, bare.problems)

	tr := trace.New(trace.Options{RootName: c.workload})
	reg := obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.Start("phase")
	ph, err := wl.phase(ctx, half, probe{span: sp, reg: reg})
	sp.End()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.count(ph.attempted, ph.failed, ph.problems)
	r.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 0)
	r.add("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", 0)
	r.add("runtime.alloc_bytes_per_op", ph.allocPerOp(), "B", len(ph.lat))
	bareP50 := percentile(sortedDurations(bare.lat), 0.5)
	tracedP50 := percentile(sortedDurations(ph.lat), 0.5)
	r.add("trace.bare_p50_ms", ms(bareP50), "ms", len(bare.lat))
	r.add("trace.traced_p50_ms", ms(tracedP50), "ms", len(ph.lat))
	r.add("trace.overhead_ms", ms(tracedP50-bareP50), "ms", 0)

	fx := wl.fixture()
	if err := traceSetup(ctx, c, tr, r); err != nil {
		return err
	}
	if err := replaySweep(ctx, c, fx, tr.Start("sweep.replay"), r); err != nil {
		return err
	}
	if c.workload == "sweep" {
		reg = obs.NewRegistry()
		if ph, err = replayServe(ctx, c, fx, tr.Start("serve.replay"), reg); err != nil {
			return err
		}
		r.count(ph.attempted, ph.failed, ph.problems)
	}
	addServeLayers(r, ph, reg)
	tr.Finish()

	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.traceDir, c.workload+".trace.json")
	if err := tr.WriteChromeFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "# trace %s\n", path)
	writeLayerTable(out, tr.Tree())
	return nil
}

// layerTimer wraps calls into layers in spans under one parent and keeps
// each layer's durations.
type layerTimer struct {
	parent *trace.Span
	times  map[string][]float64
}

func newLayerTimer(parent *trace.Span) *layerTimer {
	return &layerTimer{parent: parent, times: map[string][]float64{}}
}

func (lt *layerTimer) time(name string, f func() error) error {
	sp := lt.parent.Start(name)
	t0 := time.Now()
	err := f()
	lt.times[name] = append(lt.times[name], time.Since(t0).Seconds())
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (lt *layerTimer) median(name string) float64 { return median(lt.times[name]) }

// setupStages maps the engine's set-up stages, as its obs registry names
// them, to the per-layer metrics that report their wall time.
var setupStages = []struct{ stage, metric string }{
	{"expand", "reldb.expand_s"},
	{"enumerate", "reldb.enumerate_s"},
	{"compile_plans", "prop.compile_s"},
	{"trainset", "trainset.build_s"},
	{"features", "sim.features_s"},
	{"train_svm", "svm.train_s"},
}

// traceSetup prices set-up's layers from the engine's own stages: it sets
// up once more with an obs registry and the run's trace attached, so the
// engine's stage spans join the trace, then reads each stage's wall time
// and the plan and training-set sizes from the registry.
func traceSetup(ctx context.Context, c config, tr *trace.Trace, r *report) error {
	reg := obs.NewRegistry()
	if _, err := newFixture(ctx, c, reg, tr); err != nil {
		return err
	}
	snap := reg.Snapshot()
	for _, s := range setupStages {
		st, ok := snap.Stages[s.stage]
		if !ok {
			return fmt.Errorf("set-up recorded no %q stage", s.stage)
		}
		r.add(s.metric, float64(st.WallNs)/1e9, "s", 0)
	}
	r.add("prop.csr_hops", float64(snap.Counters["prop.csr_hops"]), "count", 0)
	r.add("prop.csr_edges", float64(snap.Counters["prop.csr_edges"]), "count", 0)
	r.add("trainset.pairs", float64(snap.Counters["trainset.positive"]+snap.Counters["trainset.negative"]), "count", 0)
	return nil
}

// replaySweep prices the sweep's layers. Each rep sweeps a fresh engine
// once (core.sweep), then replays its three big stages one at a time on
// the same names: propagation on a fresh extractor (prop.propagate), the
// similarity kernel on the swept engine's warm neighborhoods
// (sim.similarities) and agglomerative clustering of those matrices
// (cluster.agglomerate). Names run on GOMAXPROCS workers, as in the sweep.
// The residual is the sweep's wall time that these stages and blocking do
// not account for: per-name bookkeeping and uneven work at the end.
func replaySweep(ctx context.Context, c config, fx *fixture, sp *trace.Span, r *report) error {
	defer sp.End()
	lt := newLayerTimer(sp)
	workers := runtime.GOMAXPROCS(0)
	names := fx.names
	var pairs, nrefs int64
	var engSnap, clusterSnap obs.Snapshot
	var blocksS []float64
	for rep := 0; rep < c.layerReps; rep++ {
		reg := obs.NewRegistry()
		cfg := fx.cfg
		cfg.Obs = reg
		eng, err := core.NewEngineCtx(ctx, fx.world.DB, cfg)
		if err != nil {
			return err
		}
		if err := eng.ApplyModel(fx.model); err != nil {
			return err
		}
		runtime.GC()
		var res *core.BatchResult
		if err := lt.time("core.sweep", func() (err error) {
			res, err = eng.DisambiguateAllCtx(ctx, core.BatchOptions{MinRefs: 2})
			return err
		}); err != nil {
			return err
		}
		refs := make([][]reldb.TupleID, len(names))
		var all []reldb.TupleID
		pairs = 0
		for i, name := range names {
			refs[i] = eng.RefsForName(name)
			all = append(all, refs[i]...)
			n := int64(len(refs[i]))
			pairs += n * (n - 1) / 2
		}
		nrefs = int64(len(all))
		if err := lt.time("prop.propagate", func() error {
			sim.NewExtractor(eng.DB(), eng.Paths()).Prefetch(all, workers)
			return nil
		}); err != nil {
			return err
		}
		mats := make([]cluster.Matrix, len(names))
		if err := lt.time("sim.similarities", func() error {
			return forEach(len(names), workers, func(i int) error {
				mats[i] = eng.Similarities(refs[i])
				return nil
			})
		}); err != nil {
			return err
		}
		creg := obs.NewRegistry()
		groups := make([][][]int, len(names))
		if err := lt.time("cluster.agglomerate", func() error {
			return forEach(len(names), workers, func(i int) error {
				groups[i] = cluster.Agglomerate(len(refs[i]), mats[i], cluster.Options{
					Measure: fx.cfg.Measure, MinSim: eng.MinSim(), Obs: creg,
				})
				return nil
			})
		}); err != nil {
			return err
		}
		bad := compareReplay(names, refs, groups, res)
		var problems []string
		if len(bad) > 0 {
			problems = append(problems, fmt.Sprintf("sweep replay: %d names cluster differently from the sweep, first %q",
				len(bad), bad[0]))
		}
		if len(res.Incidents) > 0 {
			problems = append(problems, fmt.Sprintf("sweep replay: %d incidents", len(res.Incidents)))
		}
		r.count(len(names), len(bad)+len(res.Incidents), problems)
		engSnap, clusterSnap = reg.Snapshot(), creg.Snapshot()
		blocksS = append(blocksS, float64(engSnap.Stages["blocks"].WallNs)/1e9)
	}
	n := c.layerReps
	sweepS := lt.median("core.sweep")
	simS := lt.median("sim.similarities")
	r.add("prop.propagate_s", lt.median("prop.propagate"), "s", n)
	r.add("prop.refs", float64(nrefs), "count", 0)
	r.add("sim.similarities_s", simS, "s", n)
	r.add("sim.pairs", float64(pairs), "count", 0)
	r.add("sim.ns_per_pair", simS*1e9/float64(max(1, pairs)), "ns", n)
	r.add("cluster.agglomerate_s", lt.median("cluster.agglomerate"), "s", n)
	r.add("cluster.merges", float64(clusterSnap.Counters["cluster.merges"]), "count", 0)
	r.add("cluster.heap_stale_pops", float64(clusterSnap.Counters["cluster.heap_stale_pops"]), "count", 0)
	r.add("core.blocks_pairs_kept", float64(engSnap.Counters["blocks.pairs_kept"]), "count", 0)
	r.add("core.blocks_pairs_pruned", float64(engSnap.Counters["blocks.pairs_pruned"]), "count", 0)
	// Blocking has no entry point of its own to replay; the engine's
	// "blocks" stage records its time summed over the name workers, and its
	// share of the sweep's wall time is that sum over the worker count.
	blocksCPU := median(blocksS)
	r.add("core.blocks_cpu_s", blocksCPU, "s", n)
	r.add("core.sweep_s", sweepS, "s", n)
	r.add("core.sweep_residual_s", sweepS-(lt.median("prop.propagate")+simS+
		lt.median("cluster.agglomerate")+blocksCPU/float64(workers)), "s", n)
	return nil
}

// compareReplay checks that clustering each name's whole matrix gives the
// sweep's groups (the sweep clusters per block, which is exact for a
// positive threshold). It returns the names that differ.
func compareReplay(names []string, refs [][]reldb.TupleID, groups [][][]int, res *core.BatchResult) []string {
	split := make(map[string][][]reldb.TupleID, len(res.Split))
	for _, ng := range res.Split {
		split[ng.Name] = ng.Groups
	}
	var bad []string
	for i, name := range names {
		want, ok := split[name]
		if !ok {
			want = [][]reldb.TupleID{refs[i]}
		}
		got := make([][]reldb.TupleID, len(groups[i]))
		for g, members := range groups[i] {
			for _, m := range members {
				got[g] = append(got[g], refs[i][m])
			}
		}
		if !slices.EqualFunc(canonical(got), canonical(want), slices.Equal[[]reldb.TupleID]) {
			bad = append(bad, name)
		}
	}
	return bad
}

// canonical sorts each group and orders groups by their smallest member.
func canonical(groups [][]reldb.TupleID) [][]reldb.TupleID {
	out := make([][]reldb.TupleID, len(groups))
	for i, g := range groups {
		out[i] = slices.Clone(g)
		slices.Sort(out[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// replayServe sends every name twice through a fresh default server over
// the workload's warm engine, from closed-loop clients: the first request
// per name computes, the second is a cache hit.
func replayServe(ctx context.Context, c config, fx *fixture, sp *trace.Span, reg *obs.Registry) (*phaseResult, error) {
	defer sp.End()
	sv, err := newServed(ctx, fx.eng, fx.names, 0)
	if err != nil {
		return nil, err
	}
	tb := &timedBackend{Backend: sv.backend, parent: sp}
	srv, err := serve.New(serve.Options{Backend: tb, Obs: reg})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var next atomic.Int64
	total := int64(2 * sv.known)
	ph := &phaseResult{}
	sv.measure(ph, srv.Handler(), sv.newClients(c.clients, c.seed, 0), func(*client) (int, bool) {
		k := next.Add(1) - 1
		if k >= total {
			return 0, false
		}
		return int(k) % sv.known, true
	})
	ph.engine = tb.durations()
	return ph, nil
}

// addServeLayers prices the serving layer from a traced served phase:
// request latency as the client saw it, engine latency from the decorated
// backend, the time the serving layer itself spent (requests minus engine
// calls) and its cache and coalescing counters.
func addServeLayers(r *report, ph *phaseResult, reg *obs.Registry) {
	lat := sortedDurations(ph.lat)
	eng := sortedDurations(ph.engine)
	r.add("serve.request_p50_ms", ms(percentile(lat, 0.50)), "ms", len(lat))
	r.add("serve.request_p99_ms", ms(percentile(lat, 0.99)), "ms", len(lat))
	r.add("serve.engine_p50_ms", ms(percentile(eng, 0.50)), "ms", len(eng))
	r.add("serve.engine_p99_ms", ms(percentile(eng, 0.99)), "ms", len(eng))
	r.add("serve.self_s_sum", (sumDurations(lat) - sumDurations(eng)).Seconds(), "s", len(lat))
	counters := reg.Snapshot().Counters
	requests := counters["serve.requests"]
	r.add("serve.cache_hit_ratio", float64(counters["serve.cache_hits"])/float64(max(1, requests)), "ratio", int(requests))
	r.add("serve.computes", float64(counters["serve.computes"]), "count", 0)
	r.add("serve.coalesced", float64(counters["serve.coalesced"]), "count", 0)
	r.add("serve.negcache_hits", float64(counters["serve.negcache_hits"]), "count", 0)
}

// writeLayerTable prints, per span name, the calls, the total time and the
// self time: a span's duration minus the part its children cover.
func writeLayerTable(w io.Writer, root *trace.SpanNode) {
	type row struct {
		calls       int
		total, self int64
	}
	rows := map[string]*row{}
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		rw := rows[n.Name]
		if rw == nil {
			rw = &row{}
			rows[n.Name] = rw
		}
		rw.calls++
		rw.total += n.DurNs
		rw.self += n.DurNs - covered(n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	names := sortedKeys(rows)
	sort.SliceStable(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	fmt.Fprintf(w, "# %-22s %7s %10s %10s\n", "layer", "calls", "total_s", "self_s")
	for _, name := range names {
		rw := rows[name]
		fmt.Fprintf(w, "# %-22s %7d %10.4f %10.4f\n", name, rw.calls, float64(rw.total)/1e9, float64(rw.self)/1e9)
	}
}

// covered is the length of the union of n's children's intervals, clipped
// to n's own interval.
func covered(n *trace.SpanNode) int64 {
	lo, hi := n.StartNs, n.StartNs+n.DurNs
	iv := make([][2]int64, 0, len(n.Children))
	for _, ch := range n.Children {
		s, e := max(lo, ch.StartNs), min(hi, ch.StartNs+ch.DurNs)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64 = 0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		sum += x[1] - max(x[0], end)
		end = x[1]
	}
	return sum
}
