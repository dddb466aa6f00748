package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"distinct/internal/cluster"
)

// TestPipelineReproducible: two engines built and trained identically on
// the same world must produce effectively identical models and identical
// disambiguations. (Neighborhoods are Go maps, so float accumulation order
// can perturb last bits; weights are compared within 1e-9.)
func TestPipelineReproducible(t *testing.T) {
	w := testWorld(t)
	build := func() *Engine {
		e := newTestEngine(t, w, true)
		if _, err := e.TrainCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1, e2 := build(), build()
	r1, w1 := e1.Weights()
	r2, w2 := e2.Weights()
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-9 || math.Abs(w1[i]-w2[i]) > 1e-9 {
			t.Fatalf("weights differ at path %d: %v/%v vs %v/%v", i, r1[i], w1[i], r2[i], w2[i])
		}
	}
	for _, name := range w.AmbiguousNames() {
		a, err := e1.DisambiguateNameCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e2.DisambiguateNameCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d groups across identical runs", name, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("%s: group %d sizes differ", name, i)
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: group %d member %d differs", name, i, j)
				}
			}
		}
	}
}

// TestTrainingSeedMatters: a different sampling seed produces a different
// training set and hence (generally) different weights — guarding against
// an accidentally ignored seed.
func TestTrainingSeedMatters(t *testing.T) {
	w := testWorld(t)
	cfg := engineConfig(w, true)
	e1, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg.Train.Seed = 999
	e2, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	r1, _ := e1.Weights()
	r2, _ := e2.Weights()
	same := true
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Error("different training seeds produced identical weights; is the seed plumbed through?")
	}
}

// TestWorkersDoNotChangeResults: the engine must produce bit-identical
// similarity matrices and clusterings regardless of the worker count.
func TestWorkersDoNotChangeResults(t *testing.T) {
	w := testWorld(t)

	run := func(workers int) ([]cluster.Cell, [][][]int32) {
		cfg := engineConfig(w, false)
		cfg.Workers = workers
		e, err := NewEngineCtx(context.Background(), w.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs := e.RefsForName("Wei Wang")
		m := e.Similarities(refs)
		var clusterings [][][]int32
		for _, name := range w.AmbiguousNames() {
			pred, err := e.DisambiguateNameCtx(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			var c [][]int32
			for _, g := range pred {
				row := make([]int32, len(g))
				for i, r := range g {
					row[i] = int32(r)
				}
				c = append(c, row)
			}
			clusterings = append(clusterings, c)
		}
		return m.Cells, clusterings
	}

	r1, c1 := run(1)
	r8, c8 := run(8)
	// Compare within a tight tolerance: the contract is numerical
	// agreement, not a particular accumulation order.
	for k := range r1 {
		a, b := r1[k], r8[k]
		if math.Abs(a.R-b.R) > 1e-12 || math.Abs(a.WAB-b.WAB) > 1e-12 || math.Abs(a.WBA-b.WBA) > 1e-12 {
			t.Fatalf("similarity cell %d differs: %+v vs %+v", k, a, b)
		}
	}
	if !reflect.DeepEqual(c1, c8) {
		t.Error("clusterings differ between 1 and 8 workers")
	}
}

// TestParallelTrainingMatchesSerial: training the resemblance and walk
// models on two workers must report bit for bit the weights and accuracies
// of training them one after the other. Run under -race.
func TestParallelTrainingMatchesSerial(t *testing.T) {
	w := testWorld(t)
	train := func(workers int) *TrainReport {
		cfg := engineConfig(w, true)
		cfg.Workers = workers
		e, err := NewEngineCtx(context.Background(), w.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.TrainCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bits := func(r *TrainReport) []uint64 {
		var b []uint64
		for _, v := range slices.Concat(r.ResemWeights, r.WalkWeights, []float64{r.ResemAccuracy, r.WalkAccuracy}) {
			b = append(b, math.Float64bits(v))
		}
		return b
	}
	serial, parallel := train(1), train(2)
	if len(serial.ResemWeights) == 0 || len(serial.ResemWeights) != len(parallel.ResemWeights) {
		t.Fatalf("%d vs %d resemblance weights", len(serial.ResemWeights), len(parallel.ResemWeights))
	}
	if !slices.Equal(bits(serial), bits(parallel)) {
		t.Errorf("two workers trained other models:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}
