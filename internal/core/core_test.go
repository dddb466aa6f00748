package core

import (
	"context"
	"math"
	"slices"
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
	if m.N != len(refs) || len(m.Cells) != len(refs)*(len(refs)-1)/2 {
		t.Fatalf("%d references, %d cells for %d refs", m.N, len(m.Cells), len(refs))
	}
	for _, c := range m.Cells {
		if c.R < 0 || c.R > 1+1e-9 {
			t.Fatalf("resemblance out of range: %v", c.R)
		}
		if c.WAB < 0 || c.WBA < 0 {
			t.Fatalf("negative walk probability: %+v", c)
		}
	}
}

// A recycled triangle, dirty and larger than the name needs, is zeroed and
// filled in place to the same bits as a fresh one; one too small is left
// alone for a fresh triangle.
func TestSimilaritiesReuseBuffer(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	fresh := e.Similarities(refs)
	ctx := context.Background()
	big := make([]cluster.Cell, len(fresh.Cells)+7)
	for i := range big {
		big[i] = cluster.Cell{R: math.NaN(), WAB: -1, WBA: math.Inf(1)}
	}
	m, err := e.similarities(ctx, refs, e.w, big)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Cells[0] != &big[0] || len(m.Cells) != len(fresh.Cells) {
		t.Fatalf("a large enough buffer was not filled in place (%d cells)", len(m.Cells))
	}
	for k, c := range m.Cells {
		if c != fresh.Cells[k] {
			t.Fatalf("cell %d: %+v in a recycled buffer, %+v fresh", k, c, fresh.Cells[k])
		}
	}
	small := make([]cluster.Cell, 3)
	m, err = e.similarities(ctx, refs, e.w, small)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Cells[0] == &small[0] || len(m.Cells) != len(fresh.Cells) {
		t.Fatalf("a buffer of %d cells was used for %d", len(small), len(fresh.Cells))
	}
	// Names of decreasing size through the pooled path group as a fresh
	// engine groups them one at a time.
	for _, name := range []string{"Wei Wang", "Bin Yu"} {
		refs := e.RefsForName(name)
		got := mustGroups(t, e, refs)
		want, err := cluster.Run(ctx, e.Similarities(refs), cluster.Options{
			Measure: e.cfg.Measure, MinSim: e.cfg.MinSim})
		if err != nil {
			t.Fatal(err)
		}
		if g := groupRefs(refs, want.Clusters); !slices.EqualFunc(got, g, slices.Equal) {
			t.Fatalf("%s: %v through the pool, %v fresh", name, got, g)
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
			r := m.Row(i)[j-i-1].R
			if w.RefAuthor[orig[i]] == w.RefAuthor[orig[j]] {
				sameSum += r
				sameN++
			} else {
				diffSum += r
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
