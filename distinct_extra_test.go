package distinct_test

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"distinct"
	"distinct/internal/dblp"
)

func trainedEngine(t *testing.T, w *dblp.World) *distinct.Engine {
	t.Helper()
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: "Publish",
		RefAttr:     "author",
		SkipExpand:  []string{"Publications.title"},
		MinSim:      0.005,
		Train: distinct.TrainOptions{
			NumPositive: 100, NumNegative: 100, Seed: 1,
			Exclude: w.AmbiguousNames(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPublicBatchDisambiguation(t *testing.T) {
	w := publicWorld(t)
	eng := trainedEngine(t, w)
	res, err := eng.DisambiguateAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NamesExamined == 0 {
		t.Fatal("batch pass examined nothing")
	}
	found := false
	for _, s := range res.Split {
		if s.Name == "Wei Wang" {
			found = true
		}
	}
	if !found {
		t.Error("batch pass missed the injected homonym")
	}
}

func TestPublicTuneMinSim(t *testing.T) {
	w := publicWorld(t)
	eng := trainedEngine(t, w)
	res, err := eng.TuneMinSim(nil, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.MinSim() != res.MinSim {
		t.Error("tuned threshold not installed")
	}
	if err := eng.SetMinSim(0.42); err != nil || eng.MinSim() != 0.42 {
		t.Error("SetMinSim did not stick")
	}
	eng.SetMeasure(distinct.ResemblanceOnly)
}

func TestPublicModelPersistence(t *testing.T) {
	w := publicWorld(t)
	eng := trainedEngine(t, w)
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := distinct.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A second engine over the same world adopts the trained weights
	// without retraining.
	eng2, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: "Publish",
		RefAttr:     "author",
		SkipExpand:  []string{"Publications.title"},
		MinSim:      0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.ApplyModel(m); err != nil {
		t.Fatal(err)
	}
	r1, _ := eng.Weights()
	r2, _ := eng2.Weights()
	for i := range r1 {
		// ApplyModel re-normalises defensively (model files are editable),
		// which can perturb the last bits; demand near-exact equality.
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("model transfer changed weight %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	if m2 := eng.ExportModel(); len(m2.Paths) != len(eng.Paths()) {
		t.Error("exported model path count mismatch")
	}
}

// TestPublicRejectsNonFiniteWeights: weights that cannot be normalised — a
// NaN or infinite entry, or positive entries whose sum overflows float64 —
// are refused by SetWeights and by ApplyModel, including a model file that
// LoadModel read, and leave the engine's weights as they were. Normalising
// two entries of 1e308 would divide by +Inf and install all zeros.
func TestPublicRejectsNonFiniteWeights(t *testing.T) {
	eng, err := distinct.Open(publicWorld(t).DB, distinct.Config{
		RefRelation: "Publish",
		RefAttr:     "author",
		SkipExpand:  []string{"Publications.title"},
		MinSim:      0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := make([]float64, len(eng.Paths()))
	ok[0] = 1
	if err := eng.SetWeights(ok, ok); err != nil {
		t.Fatal(err)
	}
	wantR, wantW := eng.Weights()
	unchanged := func(what string) {
		t.Helper()
		if r, w := eng.Weights(); !slices.Equal(r, wantR) || !slices.Equal(w, wantW) {
			t.Errorf("%s changed the weights", what)
		}
	}
	with := func(vals ...float64) []float64 {
		v := slices.Clone(ok)
		copy(v, vals)
		return v
	}
	for what, bad := range map[string][]float64{
		"NaN":             with(math.NaN()),
		"+Inf":            with(1, math.Inf(1)),
		"-Inf":            with(1, math.Inf(-1)),
		"overflowing sum": with(1e308, 1e308),
	} {
		if err := eng.SetWeights(bad, ok); err == nil {
			t.Errorf("SetWeights accepted %s resemblance weights", what)
		}
		unchanged("SetWeights with " + what + " resemblance weights")
		if err := eng.SetWeights(ok, bad); err == nil {
			t.Errorf("SetWeights accepted %s walk weights", what)
		}
		unchanged("SetWeights with " + what + " walk weights")
	}

	// JSON carries no NaN or Inf, but it does carry 1e308 twice.
	m := eng.ExportModel()
	m.WalkWeights[0], m.WalkWeights[1] = 1e308, 1e308
	doc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := distinct.LoadModel(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyModel(loaded); err == nil {
		t.Error("ApplyModel accepted walk weights whose sum overflows")
	}
	unchanged("ApplyModel with an overflowing sum")
}

// TestPublicRejectsNonFiniteMinSim: no similarity reaches a NaN or +Inf
// threshold and every one reaches -Inf, so Open, SetMinSim and a tuning
// grid refuse them, and SetMinSim leaves the threshold as it was.
func TestPublicRejectsNonFiniteMinSim(t *testing.T) {
	db := publicWorld(t).DB
	cfg := distinct.Config{
		RefRelation: "Publish",
		RefAttr:     "author",
		SkipExpand:  []string{"Publications.title"},
		MinSim:      0.005,
	}
	eng, err := distinct.Open(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := cfg
		c.MinSim = bad
		if _, err := distinct.Open(db, c); err == nil {
			t.Errorf("Open accepted min-sim %v", bad)
		}
		if err := eng.SetMinSim(bad); err == nil {
			t.Errorf("SetMinSim accepted %v", bad)
		}
		if got := eng.MinSim(); got != 0.005 {
			t.Errorf("SetMinSim(%v) changed the threshold to %v", bad, got)
		}
		if _, err := eng.TuneMinSim([]float64{0.01, bad}, 2, 1); err == nil {
			t.Errorf("TuneMinSim accepted grid point %v", bad)
		}
	}
	if err := eng.SetMinSim(0.02); err != nil || eng.MinSim() != 0.02 {
		t.Errorf("SetMinSim(0.02) = %v, threshold %v", err, eng.MinSim())
	}
}

func TestPublicWorkersConfig(t *testing.T) {
	w := publicWorld(t)
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation:  "Publish",
		RefAttr:      "author",
		SkipExpand:   []string{"Publications.title"},
		Workers:      4,
		MinSim:       0.005,
		Unsupervised: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := eng.Disambiguate("Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
}

// TestPublicInsertAfterOpen: the engine's compiled plan is a snapshot of
// its database at Open. A reference inserted into eng.DB() afterwards is
// one more reference of its name, outside the snapshot and so with empty
// neighborhoods: Disambiguate must answer without error and place it in
// exactly one group.
func TestPublicInsertAfterOpen(t *testing.T) {
	w := publicWorld(t)
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: "Publish",
		RefAttr:     "author",
		SkipExpand:  []string{"Publications.title"},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := eng.DB()
	refs := eng.Refs("Wei Wang")
	late := db.MustInsert("Publish", "Wei Wang", db.Tuple(refs[0]).Val("paper-key"))
	groups, err := eng.Disambiguate("Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	seen, total := 0, 0
	for _, g := range groups {
		for _, r := range g {
			total++
			if r == late {
				seen++
			}
		}
	}
	if seen != 1 || total != len(refs)+1 {
		t.Fatalf("late reference placed %d times among %d grouped references, want once among %d", seen, total, len(refs)+1)
	}
}
