package core

import (
	"context"
	"errors"
	"testing"

	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

// TestStageDisabledPathAllocs pins the cost of the stage primitive with
// observability, tracing and fault injection all off: a begin/end pair
// allocates nothing.
func TestStageDisabledPathAllocs(t *testing.T) {
	e := &Engine{} // no registry, no trace: every stage handle is nil
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		st, _, err := e.begin(ctx, stageSimilarities, trace.Int("refs", 3), trace.Int("pairs", 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.end(3, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("begin/end on the disabled path allocates %v times per pair, want 0", allocs)
	}
}

// spanCounts counts the trace spans carrying each stage name.
func spanCounts(n *trace.SpanNode, into map[string]int64) {
	into[n.Name]++
	for _, c := range n.Children {
		spanCounts(c, into)
	}
}

// TestFailedStagesCountedAndClosed fails a stage mid-run and asserts the
// obs stage counts and the trace agree: every stage that opened a span
// counted a run, failed or not.
func TestFailedStagesCountedAndClosed(t *testing.T) {
	w := testWorld(t)
	cases := []struct {
		name string
		run  func(e *Engine) error
	}{
		{"cluster.merge", func(e *Engine) error {
			f := fault.NewRegistry(1)
			f.Set("cluster.merge", fault.Rule{OnHit: 1, Err: fault.ErrInjected})
			_, err := e.DisambiguateNameCtx(fault.With(context.Background(), f), "Wei Wang")
			return err
		}},
		{"trainset", func(e *Engine) error {
			// No rare name carries this many references: trainset.Build fails.
			e.cfg.Train.MinRefs = 1 << 20
			_, err := e.TrainCtx(context.Background())
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := trace.New(trace.Options{})
			cfg := engineConfig(w, false)
			cfg.Obs, cfg.Trace = reg, tr
			e, err := NewEngineCtx(context.Background(), w.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(e)
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want a stage error", err)
			}
			tr.Finish()
			spans := make(map[string]int64)
			spanCounts(tr.Tree(), spans)
			stages := reg.Snapshot().Stages
			for _, name := range stageNames {
				if got, want := stages[name].Count, spans[name]; got != want {
					t.Errorf("stage %s: obs count %d, trace spans %d", name, got, want)
				}
			}
			if spans[se.Stage] == 0 {
				t.Errorf("failing stage %s recorded no span", se.Stage)
			}
		})
	}
}
