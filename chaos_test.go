// Chaos suite: drives the resilience layer with the deterministic fault
// harness (internal/fault). Every schedule is a pure function of -chaos.seed,
// so a failing run replays exactly; CI sweeps seeds 1..3 under -race.
//
// The suite asserts the resilient-execution contract end to end:
//   - cancelling at every stage boundary surfaces a stage-wrapped
//     context.Canceled within 250ms of the cancel,
//   - an injected worker panic becomes exactly one BatchResult incident
//     (the process never dies),
//   - an injected delay plus a per-name budget produces a degraded retry
//     recorded with reason "degraded", matching obs counters and trace
//     events,
//   - an attached-but-ruleless registry changes nothing on the clean path,
//   - a seeded mid-batch cancel yields a partial BatchResult that is a
//     consistent subset of the full run, with zero incidents.
package distinct_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"distinct"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/fault"
	"distinct/internal/obs/trace"
)

var chaosSeed = flag.Int64("chaos.seed", 1, "seed driving the deterministic fault schedules")

// chaosMinRefs keeps every generated ambiguous name in the batch work list.
const chaosMinRefs = 8

// chaosWorld memoizes a reduced world: big enough that every pipeline stage
// (blocking, per-block similarities, clustering) runs, small enough that the
// suite stays fast under -race.
var chaosWorldState struct {
	once sync.Once
	w    *dblp.World
	err  error
}

func chaosWorld(t *testing.T) *dblp.World {
	t.Helper()
	chaosWorldState.once.Do(func() {
		cfg := dblp.DefaultConfig()
		cfg.Communities = 4
		cfg.AuthorsPerCommunity = 60
		cfg.PapersPerAuthor = 3
		cfg.Ambiguous = []dblp.AmbiguousName{
			{Name: "Wei Wang", RefsPerAuthor: []int{14, 9, 6}},
			{Name: "Lei Wang", RefsPerAuthor: []int{7, 5}},
			{Name: "Bin Yu", RefsPerAuthor: []int{6, 4}},
		}
		chaosWorldState.w, chaosWorldState.err = dblp.Generate(cfg)
	})
	if chaosWorldState.err != nil {
		t.Fatal(chaosWorldState.err)
	}
	return chaosWorldState.w
}

func chaosConfig(w *dblp.World, workers int, reg *distinct.Registry, tr *distinct.Trace) distinct.Config {
	return distinct.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Train: distinct.TrainOptions{
			NumPositive: 150, NumNegative: 150,
			Exclude: w.AmbiguousNames(), Seed: 1,
		},
		Workers: workers,
		Metrics: reg,
		Trace:   tr,
	}
}

// Shared trained engines. The sequential one makes the stage observing a
// cancel deterministic; the parallel one exercises worker scheduling.
var chaosEngines struct {
	sync.Mutex
	seq *distinct.Engine
	par *distinct.Engine
}

func chaosEngine(t *testing.T, cache **distinct.Engine, workers int) *distinct.Engine {
	t.Helper()
	chaosEngines.Lock()
	defer chaosEngines.Unlock()
	if *cache != nil {
		return *cache
	}
	w := chaosWorld(t)
	eng, err := distinct.Open(w.DB, chaosConfig(w, workers, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	*cache = eng
	return eng
}

func chaosSeqEngine(t *testing.T) *distinct.Engine { return chaosEngine(t, &chaosEngines.seq, 1) }
func chaosParEngine(t *testing.T) *distinct.Engine { return chaosEngine(t, &chaosEngines.par, 0) }

// newInstrumentedEngine builds a trained engine with its own metrics
// registry and trace, for tests asserting incident counters and events.
func newInstrumentedEngine(t *testing.T) (*distinct.Engine, *distinct.Registry, *distinct.Trace) {
	t.Helper()
	w := chaosWorld(t)
	reg := distinct.NewMetrics()
	tr := distinct.NewTrace(0)
	eng, err := distinct.Open(w.DB, chaosConfig(w, 0, reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	return eng, reg, tr
}

// incidentEvents counts "incident" trace events, optionally filtered by
// reason.
func incidentEvents(n *trace.SpanNode, reason string) int {
	total := 0
	for _, ev := range n.Events {
		if ev.Name == "incident" && (reason == "" || fmt.Sprint(ev.Attrs["reason"]) == reason) {
			total++
		}
	}
	for _, c := range n.Children {
		total += incidentEvents(c, reason)
	}
	return total
}

// TestChaosCancelEveryStage cancels the context from inside every injection
// point in the catalog and asserts the stage-wrapped context.Canceled comes
// back within the 250ms latency bound. Workers=1 pins which stage observes
// the cancel, so the asserted stage name is deterministic.
func TestChaosCancelEveryStage(t *testing.T) {
	w := chaosWorld(t)
	const (
		phaseOpen = iota
		phaseTrain
		phaseBatch
		phasePathSims // PathSimilaritiesCtx, the experiments-harness entry point
	)
	cases := []struct {
		point string // injection point whose first hit triggers the cancel
		stage string // stage name the returned error must carry
		phase int
	}{
		{"core.expand", "expand", phaseOpen},
		{"core.enumerate", "enumerate", phaseOpen},
		{"core.compile_plans", "compile_plans", phaseOpen},
		{"core.trainset", "trainset", phaseTrain},
		{"core.features", "features", phaseTrain},
		{"core.train_svm", "train_svm", phaseTrain},
		{"core.batch", "batch", phaseBatch},
		{"sim.prefetch", "prefetch", phaseBatch},
		{"core.path_sims", "path_sims", phasePathSims},
		{"core.similarities", "similarities", phaseBatch},
		{"core.similarities.row", "similarities", phaseBatch},
		{"core.cluster", "cluster", phaseBatch},
		// Inside the agglomeration merge loop (between merges), not just at
		// the cluster stage boundary.
		{"cluster.merge", "cluster", phaseBatch},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var firedAt time.Time
			f := fault.NewRegistry(*chaosSeed)
			f.Set(tc.point, fault.Rule{OnHit: 1, Hook: func() {
				firedAt = time.Now()
				cancel()
			}})
			fctx := fault.With(ctx, f)

			var err error
			switch tc.phase {
			case phaseOpen:
				_, err = distinct.OpenCtx(fctx, w.DB, chaosConfig(w, 1, nil, nil))
			case phaseTrain:
				eng, oerr := distinct.Open(w.DB, chaosConfig(w, 1, nil, nil))
				if oerr != nil {
					t.Fatal(oerr)
				}
				_, err = eng.TrainCtx(fctx)
			case phaseBatch:
				_, err = chaosSeqEngine(t).DisambiguateAllCtx(fctx, distinct.BatchOptions{MinRefs: chaosMinRefs})
			case phasePathSims:
				ceng, oerr := core.NewEngineCtx(context.Background(), w.DB, core.Config{
					RefRelation: dblp.ReferenceRelation,
					RefAttr:     dblp.ReferenceAttr,
					SkipExpand:  []string{dblp.TitleAttr},
					Workers:     1,
				})
				if oerr != nil {
					t.Fatal(oerr)
				}
				_, err = ceng.PathSimilaritiesCtx(fctx, ceng.RefsForName("Wei Wang"))
			}
			elapsed := time.Since(firedAt)

			if firedAt.IsZero() {
				t.Fatalf("injection point %s was never hit (err = %v)", tc.point, err)
			}
			if err == nil {
				t.Fatalf("no error after cancelling at %s", tc.point)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error does not wrap context.Canceled: %v", err)
			}
			if !strings.Contains(err.Error(), tc.stage) {
				t.Errorf("error %q does not name stage %q", err, tc.stage)
			}
			if elapsed > 250*time.Millisecond {
				t.Errorf("cancellation at %s took %v to surface, want <= 250ms", tc.point, elapsed)
			}
		})
	}
}

// TestChaosPanicIsolation injects a panic into one name's clustering stage
// and asserts the batch still completes, with the panic converted into
// exactly one incident and the name kept as one conservative group.
func TestChaosPanicIsolation(t *testing.T) {
	eng, reg, tr := newInstrumentedEngine(t)
	full, err := eng.DisambiguateAll(chaosMinRefs)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Incidents) != 0 {
		t.Fatalf("clean run produced incidents: %+v", full.Incidents)
	}

	f := fault.NewRegistry(*chaosSeed)
	f.Set("core.cluster", fault.Rule{OnHit: 1, Panic: "injected cluster panic"})
	res, err := eng.DisambiguateAllCtx(fault.With(context.Background(), f),
		distinct.BatchOptions{MinRefs: chaosMinRefs})
	if err != nil {
		t.Fatalf("batch must complete despite a worker panic, got: %v", err)
	}
	if res.NamesExamined != full.NamesExamined {
		t.Errorf("names examined = %d, want %d (panicked name must still be accounted)",
			res.NamesExamined, full.NamesExamined)
	}
	if len(res.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", res.Incidents)
	}
	inc := res.Incidents[0]
	if inc.Reason != distinct.IncidentPanic {
		t.Errorf("incident reason = %q, want %q", inc.Reason, distinct.IncidentPanic)
	}
	if inc.Stage != "cluster" {
		t.Errorf("incident stage = %q, want cluster", inc.Stage)
	}
	if inc.Name == "" || !strings.Contains(inc.Err, "injected cluster panic") || inc.Elapsed <= 0 {
		t.Errorf("incident not fully recorded: %+v", inc)
	}
	if got := len(f.Firings()); got != 1 {
		t.Errorf("fault firings = %d, want 1", got)
	}

	c := reg.Snapshot().Counters
	if c["batch.incidents"] != 1 || c["batch.incident_panic"] != 1 {
		t.Errorf("incident counters = incidents:%d panic:%d, want 1/1",
			c["batch.incidents"], c["batch.incident_panic"])
	}
	tr.Finish()
	if n := incidentEvents(tr.Tree(), "panic"); n != 1 {
		t.Errorf("panic incident trace events = %d, want 1", n)
	}
}

// TestChaosMergeLoopFault fails one name from inside the agglomeration
// merge loop (the cluster.merge fault point, mid-run rather than at the
// stage boundary) and asserts the batch isolates it as a single
// cluster-stage error incident — and that the very next clean run over the
// same engine is bit-identical to a never-faulted run, i.e. the aborted
// agglomeration leaked no scratch state into the pool.
func TestChaosMergeLoopFault(t *testing.T) {
	eng, reg, _ := newInstrumentedEngine(t)
	full, err := eng.DisambiguateAll(chaosMinRefs)
	if err != nil {
		t.Fatal(err)
	}

	f := fault.NewRegistry(*chaosSeed)
	f.Set("cluster.merge", fault.Rule{OnHit: 2, Err: fault.ErrInjected})
	res, err := eng.DisambiguateAllCtx(fault.With(context.Background(), f),
		distinct.BatchOptions{MinRefs: chaosMinRefs})
	if err != nil {
		t.Fatalf("batch must complete despite the merge-loop fault, got: %v", err)
	}
	if len(res.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", res.Incidents)
	}
	inc := res.Incidents[0]
	if inc.Reason != distinct.IncidentError {
		t.Errorf("incident reason = %q, want %q", inc.Reason, distinct.IncidentError)
	}
	if inc.Stage != "cluster" {
		t.Errorf("incident stage = %q, want cluster", inc.Stage)
	}
	if !strings.Contains(inc.Err, "cluster.merge") {
		t.Errorf("incident error %q does not name the cluster.merge point", inc.Err)
	}
	c := reg.Snapshot().Counters
	if c["batch.incident_error"] != 1 {
		t.Errorf("batch.incident_error = %d, want 1", c["batch.incident_error"])
	}

	clean, err := eng.DisambiguateAll(chaosMinRefs)
	if err != nil {
		t.Fatal(err)
	}
	if clean.NamesExamined != full.NamesExamined || !reflect.DeepEqual(clean.Split, full.Split) {
		t.Error("clean run after the merge-loop fault differs from the never-faulted run")
	}
}

// TestChaosDeadlineDegrades delays one name past its per-name budget and
// asserts the degraded retry completes the name, recorded with reason
// "degraded" plus the matching counter and trace event.
func TestChaosDeadlineDegrades(t *testing.T) {
	eng, reg, tr := newInstrumentedEngine(t)
	resemW, walkW := eng.Weights()
	nonzero := 0
	for i := range resemW {
		if resemW[i] > 0 || walkW[i] > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Skipf("only %d weighted join paths; the degraded view cannot cut any", nonzero)
	}

	f := fault.NewRegistry(*chaosSeed)
	f.Set("core.similarities", fault.Rule{OnHit: 1, Delay: 10 * time.Second})
	res, err := eng.DisambiguateAllCtx(fault.With(context.Background(), f),
		distinct.BatchOptions{
			MinRefs:     chaosMinRefs,
			NameTimeout: time.Second,
			// One fewer path than the engine uses, so the retry genuinely
			// runs on a reduced path set.
			DegradedPaths: nonzero - 1,
		})
	if err != nil {
		t.Fatalf("batch must complete despite the per-name timeout, got: %v", err)
	}
	if len(res.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", res.Incidents)
	}
	inc := res.Incidents[0]
	if inc.Reason != distinct.IncidentDegraded {
		t.Fatalf("incident reason = %q, want %q (%+v)", inc.Reason, distinct.IncidentDegraded, inc)
	}
	if inc.Stage != "similarities" {
		t.Errorf("incident stage = %q, want similarities", inc.Stage)
	}
	if !strings.Contains(inc.Err, context.DeadlineExceeded.Error()) {
		t.Errorf("incident error %q does not carry the deadline cause", inc.Err)
	}
	if inc.Elapsed < time.Second {
		t.Errorf("incident elapsed = %v, want >= the 1s budget it blew", inc.Elapsed)
	}

	c := reg.Snapshot().Counters
	if c["batch.incidents"] != 1 || c["batch.incident_degraded"] != 1 {
		t.Errorf("incident counters = incidents:%d degraded:%d, want 1/1",
			c["batch.incidents"], c["batch.incident_degraded"])
	}
	tr.Finish()
	if n := incidentEvents(tr.Tree(), "degraded"); n != 1 {
		t.Errorf("degraded incident trace events = %d, want 1", n)
	}
}

// TestChaosFaultsOffIdentical asserts the off switch: a context carrying a
// registry with no rules, plus a generous per-name budget, must reproduce
// the plain DisambiguateAll outcome exactly. (Bit-identity of the clean path
// against committed output is TestGoldenE2E's job.)
func TestChaosFaultsOffIdentical(t *testing.T) {
	eng := chaosParEngine(t)
	a, err := eng.DisambiguateAll(chaosMinRefs)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewRegistry(*chaosSeed)
	b, err := eng.DisambiguateAllCtx(fault.With(context.Background(), f),
		distinct.BatchOptions{MinRefs: chaosMinRefs, NameTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Incidents) != 0 || len(b.Incidents) != 0 {
		t.Fatalf("clean runs produced incidents: %+v / %+v", a.Incidents, b.Incidents)
	}
	if a.NamesExamined != b.NamesExamined {
		t.Errorf("names examined differ: %d vs %d", a.NamesExamined, b.NamesExamined)
	}
	if !reflect.DeepEqual(a.Split, b.Split) {
		t.Errorf("split results differ between plain and faults-off ctx run")
	}
	if got := len(f.Firings()); got != 0 {
		t.Errorf("ruleless registry fired %d times", got)
	}
}

// TestChaosMidBatchCancelPartial cancels at a seeded pseudo-random
// similarity row mid-batch and asserts the partial-results contract: the
// partial BatchResult is a consistent subset of the full run's, cancellation
// is not an incident, and the error wraps context.Canceled.
func TestChaosMidBatchCancelPartial(t *testing.T) {
	eng := chaosParEngine(t)
	full, err := eng.DisambiguateAll(chaosMinRefs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := fault.NewRegistry(*chaosSeed)
	// The firing row is a pure function of (seed, hit number): a failing
	// seed replays the same cancellation point.
	f.Set("core.similarities.row", fault.Rule{Prob: 0.02, Hook: cancel})
	partial, err := eng.DisambiguateAllCtx(fault.With(ctx, f),
		distinct.BatchOptions{MinRefs: chaosMinRefs})

	if len(f.Firings()) == 0 {
		// This seed's schedule drained the batch without firing; the run
		// must then be complete and clean.
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full.Split, partial.Split) {
			t.Error("un-cancelled run differs from the full run")
		}
		return
	}
	if err == nil {
		t.Fatal("no error after mid-batch cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if partial == nil {
		t.Fatal("partial BatchResult must be returned alongside the cancellation error")
	}
	if len(partial.Incidents) != 0 {
		t.Errorf("parent cancellation must not create incidents: %+v", partial.Incidents)
	}
	if partial.NamesExamined > full.NamesExamined {
		t.Errorf("partial examined %d names, full run only %d", partial.NamesExamined, full.NamesExamined)
	}
	fullGroups := make(map[string][][]distinct.TupleID, len(full.Split))
	for _, sp := range full.Split {
		fullGroups[sp.Name] = sp.Groups
	}
	for _, sp := range partial.Split {
		want, ok := fullGroups[sp.Name]
		if !ok {
			t.Errorf("partial split name %q does not split in the full run", sp.Name)
			continue
		}
		if !reflect.DeepEqual(sp.Groups, want) {
			t.Errorf("groups of %q differ between partial and full run", sp.Name)
		}
	}
}
