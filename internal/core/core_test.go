package core

import (
	"context"
	"math"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

func testWorld(t testing.TB) *dblp.World {
	t.Helper()
	cfg := dblp.DefaultConfig()
	// A seed on which this reduced world is cleanly separable; tiny worlds
	// are noisy, and robustness across scales is exercised elsewhere.
	cfg.Seed = 3
	cfg.Communities = 4
	cfg.AuthorsPerCommunity = 60
	cfg.PapersPerAuthor = 3
	cfg.Ambiguous = []dblp.AmbiguousName{
		{Name: "Wei Wang", RefsPerAuthor: []int{12, 8, 5}},
		{Name: "Bin Yu", RefsPerAuthor: []int{7, 5}},
	}
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func engineConfig(w *dblp.World, supervised bool) Config {
	return Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  supervised,
		Measure:     cluster.Combined,
		// The test world is much smaller and sparser than the default world
		// the DefaultMinSim is tuned for, so similarities run lower.
		MinSim: 0.005,
		Train: trainset.Options{
			NumPositive: 150, NumNegative: 150, Seed: 11,
			Exclude: w.AmbiguousNames(),
		},
	}
}

func newTestEngine(t testing.TB, w *dblp.World, supervised bool) *Engine {
	t.Helper()
	e, err := NewEngineCtx(context.Background(), w.DB, engineConfig(w, supervised))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := NewEngineCtx(context.Background(), w.DB, Config{RefRelation: "Nope", RefAttr: "author"}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := NewEngineCtx(context.Background(), w.DB, Config{RefRelation: "Publish", RefAttr: "nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := NewEngineCtx(context.Background(), w.DB, Config{RefRelation: "Publications", RefAttr: "title"}); err == nil {
		t.Error("non-FK reference attribute accepted")
	}
}

func TestEnginePathsAndWeights(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	paths := e.Paths()
	if len(paths) == 0 {
		t.Fatal("no join paths")
	}
	for _, p := range paths {
		if err := p.Validate(e.DB().Schema); err != nil {
			t.Fatalf("invalid path %s: %v", p, err)
		}
		if p.Steps[0] == (reldb.Step{Rel: "Publish", Attr: "author", Forward: true}) {
			t.Fatalf("path %s walks through the reference attribute", p)
		}
	}
	r, wk := e.Weights()
	if len(r) != len(paths) || len(wk) != len(paths) {
		t.Fatal("weight lengths mismatch")
	}
	sum := 0.0
	for _, v := range r {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("uniform resem weights sum %v", sum)
	}
}

func TestMapRefs(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	orig := w.Refs("Wei Wang")
	mapped := e.MapRefs(orig)
	for i, id := range mapped {
		if id == reldb.InvalidTuple {
			t.Fatalf("ref %d unmapped", orig[i])
		}
		if got := e.DB().Tuple(id).Val("author"); got != "Wei Wang" {
			t.Fatalf("mapped ref has author %q", got)
		}
	}
	if e.MapRef(reldb.TupleID(1<<30)) != reldb.InvalidTuple {
		t.Error("bogus ID mapped")
	}
}

func TestSetWeights(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	n := len(e.Paths())
	if err := e.SetWeights(make([]float64, n-1), make([]float64, n)); err == nil {
		t.Error("short weight vector accepted")
	}
	wv := make([]float64, n)
	wv[0] = 2
	wv[1] = -5 // must be clipped
	if err := e.SetWeights(wv, wv); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Weights()
	if r[0] != 1 || r[1] != 0 {
		t.Errorf("weights after clip/normalise: %v", r[:2])
	}
	// All-negative weights fall back to uniform.
	for i := range wv {
		wv[i] = -1
	}
	if err := e.SetWeights(wv, wv); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Weights()
	if math.Abs(r[0]-1/float64(n)) > 1e-12 {
		t.Errorf("fallback weights %v", r[:2])
	}
}

func TestTrainProducesUsefulModel(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	rep, err := e.TrainCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumPositive != 150 || rep.NumNegative != 150 {
		t.Errorf("training set sizes %d/%d", rep.NumPositive, rep.NumNegative)
	}
	// The features separate equivalent from distinct pairs well; the models
	// should fit the training set far above chance.
	// Some positive pairs genuinely share no linkage within the path-length
	// cap (the paper's recall is 0.836 for the same reason), so training
	// accuracy has a ceiling below 1; far above chance is what matters.
	if rep.ResemAccuracy < 0.75 {
		t.Errorf("resemblance model training accuracy %v", rep.ResemAccuracy)
	}
	if rep.WalkAccuracy < 0.75 {
		t.Errorf("walk model training accuracy %v", rep.WalkAccuracy)
	}
	// Learned weights are installed (supervised config) and normalised.
	rw, ww := e.Weights()
	sum := 0.0
	nonzero := 0
	for _, v := range rw {
		sum += v
		if v > 0 {
			nonzero++
		}
	}
	if math.Abs(sum-1) > 1e-9 || nonzero == 0 {
		t.Errorf("resem weights sum %v nonzero %d", sum, nonzero)
	}
	_ = ww
	if rep.Timings.TotalTrain <= 0 {
		t.Error("timings not recorded")
	}
}

func TestUnsupervisedTrainKeepsUniform(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	before, _ := e.Weights()
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Weights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("unsupervised engine weights changed by Train")
		}
	}
}

func TestDisambiguateRecoversIdentities(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.AmbiguousNames() {
		pred, err := e.DisambiguateNameCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		// Map gold clusters into the expanded database.
		var gold eval.Clustering
		for _, c := range w.GoldClusters(name) {
			gold = append(gold, e.MapRefs(c))
		}
		m, err := eval.Evaluate(eval.Clustering(pred), gold)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %s (clusters pred=%d gold=%d)", name, m, len(pred), len(gold))
		if m.F1 < 0.6 {
			t.Errorf("%s: f-measure %v too low; pipeline is not separating identities", name, m.F1)
		}
	}
}

func TestDisambiguateEdgeCases(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	if _, err := e.DisambiguateNameCtx(context.Background(), "No Such Person"); err == nil {
		t.Error("unknown name accepted")
	}
	if got := mustGroups(t, e, nil); got != nil {
		t.Errorf("empty refs gave %v", got)
	}
	refs := e.RefsForName("Wei Wang")[:1]
	got := mustGroups(t, e, refs)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Errorf("single ref clustering = %v", got)
	}
}

func TestSimilaritiesSymmetryAndRange(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")[:10]
	m := e.Similarities(refs)
	for i := range refs {
		for j := range refs {
			if m.R[i][j] != m.R[j][i] {
				t.Fatal("resemblance matrix asymmetric")
			}
			if m.R[i][j] < 0 || m.R[i][j] > 1+1e-9 {
				t.Fatalf("resemblance out of range: %v", m.R[i][j])
			}
			if m.W[i][j] < 0 {
				t.Fatalf("negative walk probability: %v", m.W[i][j])
			}
		}
	}
}

// Same-identity reference pairs should on average be more similar than
// different-identity pairs — the signal DISTINCT relies on.
func TestSignalSeparation(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	orig := w.Refs("Wei Wang")
	m := e.Similarities(refs)
	var sameSum, diffSum float64
	var sameN, diffN int
	for i := range refs {
		for j := i + 1; j < len(refs); j++ {
			same := w.RefAuthor[orig[i]] == w.RefAuthor[orig[j]]
			if same {
				sameSum += m.R[i][j]
				sameN++
			} else {
				diffSum += m.R[i][j]
				diffN++
			}
		}
	}
	sameAvg, diffAvg := sameSum/float64(sameN), diffSum/float64(diffN)
	t.Logf("avg resemblance same=%v diff=%v", sameAvg, diffAvg)
	if sameAvg <= diffAvg*2 {
		t.Errorf("same-identity similarity (%v) not clearly above different-identity (%v)", sameAvg, diffAvg)
	}
}

// mustGroups is DisambiguateRefsCtx on a background context, failing the
// test on error.
func mustGroups(t testing.TB, e *Engine, refs []reldb.TupleID) [][]reldb.TupleID {
	t.Helper()
	groups, err := e.DisambiguateRefsCtx(context.Background(), refs)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// mustPathSims is PathSimilaritiesCtx on a background context, failing the
// test on error.
func mustPathSims(t testing.TB, e *Engine, refs []reldb.TupleID) *PathMatrices {
	t.Helper()
	pm, err := e.PathSimilaritiesCtx(context.Background(), refs)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}
