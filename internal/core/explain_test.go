package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestExplainMatchesSimilarities(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	m := e.Similarities(refs[:6])
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			ex := e.Explain(refs[i], refs[j])
			c := m.Row(i)[j-i-1]
			if math.Abs(ex.Resem-c.R) > 1e-12 {
				t.Fatalf("Explain resem %v != matrix %v", ex.Resem, c.R)
			}
			symWalk := (c.WAB + c.WBA) / 2
			if math.Abs(ex.Walk-symWalk) > 1e-12 {
				t.Fatalf("Explain walk %v != matrix %v", ex.Walk, symWalk)
			}
		}
	}
}

func TestExplainOrderingAndFormat(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	// Two references of the same identity share linkage.
	gold := w.GoldClusters("Wei Wang")
	same := e.MapRefs(gold[0][:2])
	ex := e.Explain(same[0], same[1])
	if len(ex.Contributions) == 0 {
		t.Fatal("no contributions for same-identity pair")
	}
	// Contributions sorted by weighted total descending.
	for i := 1; i < len(ex.Contributions); i++ {
		a := ex.Contributions[i-1]
		b := ex.Contributions[i]
		if a.WeightedResem+a.WeightedWalk < b.WeightedResem+b.WeightedWalk {
			t.Fatal("contributions not sorted")
		}
	}
	out := ex.Format(e.DB().Schema)
	if !strings.Contains(out, "similarity(ref") || !strings.Contains(out, "resem") {
		t.Errorf("Format:\n%s", out)
	}
	_ = refs
}

func TestExplainDisjointPair(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	// Two references of different ambiguous names in different communities
	// can still share publisher/year linkage; construct a guaranteed-empty
	// explanation instead from a pair whose neighborhoods cannot overlap:
	// impossible to guarantee structurally, so just exercise the empty
	// formatting branch directly.
	ex := &Explanation{R1: 1, R2: 2}
	out := ex.Format(e.DB().Schema)
	if !strings.Contains(out, "no shared linkage") {
		t.Errorf("empty explanation format:\n%s", out)
	}
}
