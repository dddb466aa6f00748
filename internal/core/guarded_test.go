package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"distinct/internal/fault"
	"distinct/internal/reldb"
)

func TestDisambiguateNameGuardedCleanMatchesDirect(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	groups, inc, err := e.DisambiguateNameGuarded(context.Background(), "Wei Wang", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inc != nil {
		t.Fatalf("clean run produced incident %+v", inc)
	}
	direct, err := e.DisambiguateNameCtx(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(direct) {
		t.Fatalf("guarded found %d groups, direct %d", len(groups), len(direct))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(e.RefsForName("Wei Wang")) {
		t.Fatalf("groups cover %d of %d refs", total, len(e.RefsForName("Wei Wang")))
	}
}

func TestDisambiguateNameGuardedUnknownName(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	if _, _, err := e.DisambiguateNameGuarded(context.Background(), "No Such Name", BatchOptions{}); err == nil {
		t.Fatal("unknown name did not error")
	}
}

func TestDisambiguateNameGuardedPanicIncident(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := fault.NewRegistry(1)
	f.Set("core.cluster", fault.Rule{OnHit: 1, Panic: "injected cluster panic"})
	refs := e.RefsForName("Wei Wang")
	groups, inc, err := e.DisambiguateNameGuarded(fault.With(context.Background(), f), "Wei Wang", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil || inc.Reason != IncidentPanic {
		t.Fatalf("want panic incident, got %+v", inc)
	}
	if inc.Elapsed <= 0 {
		t.Error("incident Elapsed not stamped")
	}
	// Conservative fallback: all refs in one group, nothing dropped.
	if len(groups) != 1 || len(groups[0]) != len(refs) {
		t.Fatalf("fallback groups %v, want one group of %d refs", len(groups), len(refs))
	}
}

func TestDisambiguateNameGuardedErrorIncident(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := fault.NewRegistry(1)
	f.Set("core.similarities", fault.Rule{OnHit: 1, Err: errors.New("injected similarity failure")})
	groups, inc, err := e.DisambiguateNameGuarded(fault.With(context.Background(), f), "Bin Yu", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil || inc.Reason != IncidentError {
		t.Fatalf("want error incident, got %+v", inc)
	}
	if len(groups) != 1 {
		t.Fatalf("fallback groups = %d, want 1", len(groups))
	}
}

func TestDisambiguateNameGuardedTimeoutLadder(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// An injected delay far past the budget forces the first attempt over;
	// the rule fires once, so the degraded retry runs clean and the name
	// completes with a degraded incident — real groups, reduced path set.
	f := fault.NewRegistry(1)
	f.Set("core.similarities", fault.Rule{OnHit: 1, Delay: 10 * time.Second})
	groups, inc, err := e.DisambiguateNameGuarded(fault.With(context.Background(), f), "Wei Wang",
		BatchOptions{NameTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil || inc.Reason != IncidentDegraded {
		t.Fatalf("want degraded incident, got %+v", inc)
	}
	if len(groups) == 0 {
		t.Fatal("degraded retry returned no groups")
	}
}

func TestDisambiguateNameGuardedForceDegraded(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	groups, inc, err := e.DisambiguateNameGuarded(context.Background(), "Wei Wang",
		BatchOptions{ForceDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil || inc.Reason != IncidentDegraded || inc.Stage != "brownout" {
		t.Fatalf("want degraded incident with stage brownout, got %+v", inc)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(refs) {
		t.Fatalf("forced-degraded groups cover %d of %d refs", total, len(refs))
	}

	// A forced-degraded attempt that blows its budget is not retried: it
	// already ran on the cut view, so the ladder goes straight to the
	// conservative single group after one attempt. This is why the serving
	// layer needs no retry gate of its own below brownout level "normal".
	f := fault.NewRegistry(1)
	f.Set("core.similarities", fault.Rule{Every: 1, Delay: 10 * time.Second})
	groups, inc, err = e.DisambiguateNameGuarded(fault.With(context.Background(), f), "Wei Wang",
		BatchOptions{ForceDegraded: true, NameTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Hits("core.similarities"); got != 1 {
		t.Fatalf("similarities attempted %d times on a forced-degraded blown budget, want 1", got)
	}
	if inc == nil || inc.Reason != IncidentTimeout {
		t.Fatalf("want timeout incident, got %+v", inc)
	}
	if len(groups) != 1 || len(groups[0]) != len(refs) {
		t.Fatalf("fallback groups %d, want one group of %d refs", len(groups), len(refs))
	}
}

func TestDisambiguateNameGuardedParentCancelled(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	groups, inc, err := e.DisambiguateNameGuarded(ctx, "Wei Wang", BatchOptions{})
	if err == nil {
		t.Fatal("cancelled parent did not error")
	}
	if groups != nil || inc != nil {
		t.Fatalf("cancelled parent returned groups=%v inc=%v, want nil/nil", groups, inc)
	}
}

func TestNamesWithRefs(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	names := e.NamesWithRefs(2)
	if len(names) == 0 {
		t.Fatal("no names with 2+ refs")
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not strictly sorted at %d: %q, %q", i, names[i-1], names[i])
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
		if got := len(e.db.Referencing(e.cfg.RefRelation, e.cfg.RefAttr, n)); got < 2 {
			t.Errorf("%q has %d refs, below threshold", n, got)
		}
	}
	for _, amb := range w.AmbiguousNames() {
		if !seen[amb] {
			t.Errorf("ambiguous name %q missing from work list", amb)
		}
	}
	// minRefs clamps at 1; every listed author name must then appear iff it
	// has at least one reference.
	all := e.NamesWithRefs(0)
	if len(all) < len(names) {
		t.Fatalf("minRefs=0 returned %d names, fewer than minRefs=2's %d", len(all), len(names))
	}
	var refs []reldb.TupleID
	for _, n := range all {
		refs = e.RefsForName(n)
		if len(refs) < 1 {
			t.Errorf("%q listed with no references", n)
		}
	}
}
