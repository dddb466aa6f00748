package core

import (
	"context"
	"testing"

	"distinct/internal/cluster"
)

func TestDisambiguateAuto(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	groups, err := e.DisambiguateNameAuto("Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(e.RefsForName("Wei Wang")) {
		t.Errorf("auto groups cover %d refs", total)
	}
	if _, err := e.DisambiguateNameAuto("No Such Name"); err == nil {
		t.Error("unknown name accepted")
	}
	if got := e.DisambiguateRefsAuto(nil); got != nil {
		t.Errorf("empty refs gave %v", got)
	}
}

func TestSetMeasureChangesClustering(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	if err := e.SetMeasure(cluster.SingleLink); err != nil {
		t.Fatal(err)
	}
	e.SetMinSim(0.15)
	a, err := e.DisambiguateNameCtx(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetMeasure(cluster.Combined); err != nil {
		t.Fatal(err)
	}
	b, err := e.DisambiguateNameCtx(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	// At a 0.3 threshold, single-link (raw max resemblance) merges far more
	// than the combined geometric measure.
	if len(a) >= len(b) {
		t.Errorf("single-link gave %d groups, combined %d; measure switch had no effect", len(a), len(b))
	}
}
