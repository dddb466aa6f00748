package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distinct/internal/eval"
	"distinct/internal/obs"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

func TestDisambiguateAllFindsInjectedHomonyms(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := e.DisambiguateAllCtx(context.Background(), BatchOptions{MinRefs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NamesExamined == 0 {
		t.Fatal("no names examined")
	}
	found := map[string]int{}
	for _, s := range res.Split {
		found[s.Name] = len(s.Groups)
		// Groups partition the name's references.
		total := 0
		for _, g := range s.Groups {
			total += len(g)
		}
		if total != len(e.RefsForName(s.Name)) {
			t.Errorf("%s: groups cover %d of %d refs", s.Name, total, len(e.RefsForName(s.Name)))
		}
	}
	// Both injected homonyms must be detected as split names.
	for _, name := range w.AmbiguousNames() {
		if found[name] < 2 {
			t.Errorf("injected homonym %q not detected (groups=%d)", name, found[name])
		}
	}
	// Sorting: descending group count.
	for i := 1; i < len(res.Split); i++ {
		if len(res.Split[i].Groups) > len(res.Split[i-1].Groups) {
			t.Error("split names not sorted by group count")
		}
	}
	// minRefs below 2 is clamped, not an error.
	if _, err := e.DisambiguateAllCtx(context.Background(), BatchOptions{MinRefs: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestTuneMinSimSelectsSeparatingThreshold(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := e.TuneMinSim(nil, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases == 0 || len(res.Grid) != len(res.F1ByGrid) {
		t.Fatalf("result %+v malformed", res)
	}
	// The tuned threshold must be installed and its f-measure the maximum.
	if e.MinSim() != res.MinSim {
		t.Error("tuned threshold not installed")
	}
	for gi, f := range res.F1ByGrid {
		if f > res.F1 {
			t.Errorf("grid[%d]=%v has f %v > reported best %v", gi, res.Grid[gi], f, res.F1)
		}
		if f < 0 || f > 1 {
			t.Errorf("f-measure %v out of range", f)
		}
	}
	// On synthetic rare-name pairs the engine should separate well: the
	// best threshold's average f-measure must be high.
	if res.F1 < 0.8 {
		t.Errorf("tuned f-measure %v too low", res.F1)
	}
	// A custom grid is respected.
	res2, err := e.TuneMinSim([]float64{0.5, 1.0}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MinSim != 0.5 && res2.MinSim != 1.0 {
		t.Errorf("tuned min-sim %v not from the custom grid", res2.MinSim)
	}
}

// tuneMinSimReference is the pre-dendrogram tuning loop — a full
// agglomeration and a pair-loop evaluation per (case × grid point) — kept
// verbatim so the dendrogram-cut fast path can be asserted bit-identical.
func tuneMinSimReference(e *Engine, grid []float64, maxCases int, seed int64) (*TuneResult, error) {
	if len(grid) == 0 {
		grid = []float64{0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	}
	if maxCases <= 0 {
		maxCases = 50
	}
	rare, err := trainset.RareNames(e.db, e.cfg.RefRelation, e.cfg.RefAttr, e.cfg.Train)
	if err != nil {
		return nil, err
	}
	var usable []string
	for _, name := range rare {
		if len(e.db.Referencing(e.cfg.RefRelation, e.cfg.RefAttr, name)) >= 2 {
			usable = append(usable, name)
		}
	}
	if len(usable) < 2 {
		return nil, fmt.Errorf("core: need at least two rare names to tune, have %d", len(usable))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(usable), func(i, j int) { usable[i], usable[j] = usable[j], usable[i] })
	nCases := len(usable) / 2
	if nCases > maxCases {
		nCases = maxCases
	}
	sums := make([]float64, len(grid))
	for c := 0; c < nCases; c++ {
		a, b := usable[2*c], usable[2*c+1]
		ra := e.RefsForName(a)
		rb := e.RefsForName(b)
		refs := append(append([]reldb.TupleID(nil), ra...), rb...)
		gold := eval.Clustering{ra, rb}
		m := e.Similarities(refs)
		for gi, ms := range grid {
			pred := clusterAt(refs, m, e.cfg.Measure, ms)
			metrics, err := eval.Evaluate(eval.Clustering(pred), gold)
			if err != nil {
				return nil, err
			}
			sums[gi] += metrics.F1
		}
	}
	res := &TuneResult{Cases: nCases, Grid: grid, F1ByGrid: make([]float64, len(grid))}
	best := -1.0
	for gi := range grid {
		f := sums[gi] / float64(nCases)
		res.F1ByGrid[gi] = f
		if f > best {
			best = f
			res.MinSim = grid[gi]
			res.F1 = f
		}
	}
	return res, nil
}

// TestTuneMinSimBitIdenticalToReference pins the dendrogram-once sweep to
// the per-threshold reference: identical TuneResult down to the float bits,
// one recording agglomeration per case (verified by counter), and direct
// reruns only for counted prefix-consistency fallbacks.
func TestTuneMinSimBitIdenticalToReference(t *testing.T) {
	w := testWorld(t)
	cfg := engineConfig(w, true)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	e, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		want, err := tuneMinSimReference(e, nil, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		runsBefore := reg.Counter("cluster.runs").Value()
		dendBefore := reg.Counter("cluster.dendrogram_runs").Value()
		fallBefore := reg.Counter("cluster.dendrogram_fallbacks").Value()
		got, err := e.TuneMinSim(nil, 20, seed)
		if err != nil {
			t.Fatal(err)
		}

		if got.Cases != want.Cases || got.MinSim != want.MinSim ||
			math.Float64bits(got.F1) != math.Float64bits(want.F1) {
			t.Fatalf("seed %d: TuneResult mismatch\nwant %+v\ngot  %+v", seed, want, got)
		}
		if len(got.F1ByGrid) != len(want.F1ByGrid) {
			t.Fatalf("seed %d: grid lengths differ", seed)
		}
		for gi := range want.F1ByGrid {
			if math.Float64bits(got.F1ByGrid[gi]) != math.Float64bits(want.F1ByGrid[gi]) {
				t.Fatalf("seed %d grid[%d]: f1 %v != reference %v",
					seed, gi, got.F1ByGrid[gi], want.F1ByGrid[gi])
			}
		}

		dend := reg.Counter("cluster.dendrogram_runs").Value() - dendBefore
		runs := reg.Counter("cluster.runs").Value() - runsBefore
		falls := reg.Counter("cluster.dendrogram_fallbacks").Value() - fallBefore
		if dend != int64(got.Cases) {
			t.Errorf("seed %d: %d dendrogram runs for %d cases (want one per case)",
				seed, dend, got.Cases)
		}
		if runs != falls {
			t.Errorf("seed %d: %d direct runs but %d fallbacks (every rerun must be a counted fallback)",
				seed, runs, falls)
		}
		if maxRuns := int64(got.Cases * len(got.Grid)); falls >= maxRuns {
			t.Errorf("seed %d: %d fallbacks out of %d cuts — the fast path never engaged",
				seed, falls, maxRuns)
		}
	}
}

func TestTuneMinSimFailsWithoutRareNames(t *testing.T) {
	w := testWorld(t)
	cfg := engineConfig(w, true)
	cfg.Train.MaxFirstFreq = 1
	cfg.Train.MaxLastFreq = 1
	// Exclude everything by making rarity unsatisfiable for names with refs.
	cfg.Train.MinRefs = 2
	e, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TuneMinSim(nil, 10, 1); err == nil {
		// Thresholds of 1/1 can still admit names; only fail when truly none.
		t.Skip("world still has ultra-rare names; nothing to assert")
	}
}

func TestSetMeasureAndMinSim(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	e.SetMinSim(0.123)
	if e.MinSim() != 0.123 {
		t.Error("SetMinSim did not stick")
	}
}

func TestNameAffinityAndSampling(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Affinity of an ambiguous name with itself is positive (its refs share
	// linkage); with a missing name it is zero.
	if got := e.NameAffinity("Wei Wang", "Wei Wang"); got <= 0 {
		t.Errorf("self affinity = %v", got)
	}
	if e.NameAffinity("Wei Wang", "No Such Name") != 0 {
		t.Error("missing-name affinity not zero")
	}
	// strideSample: identity below the cap, even coverage above it.
	refs := e.RefsForName("Wei Wang")
	if got := strideSample(refs, len(refs)+1); len(got) != len(refs) {
		t.Error("sample below cap changed length")
	}
	s := strideSample(refs, 5)
	if len(s) != 5 {
		t.Fatalf("sample = %d", len(s))
	}
	if s[0] != refs[0] {
		t.Error("stride sample does not start at the first reference")
	}
	seen := map[int32]bool{}
	for _, r := range s {
		if seen[int32(r)] {
			t.Error("stride sample repeated a reference")
		}
		seen[int32(r)] = true
	}
}
