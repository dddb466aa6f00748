// Benchmarks regenerating every table and figure of the DISTINCT paper's
// evaluation (one benchmark per experiment), plus micro-benchmarks of the
// pipeline stages and ablation benchmarks of the design choices.
//
// Quality benchmarks report f-measure / precision / recall / accuracy via
// b.ReportMetric next to the usual ns/op, so a single `go test -bench=.`
// run shows both the speed and the reproduced result shape.
package distinct_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"distinct"
	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/experiments"
	"distinct/internal/reldb"
	"distinct/internal/sim"
	"distinct/internal/svm"
	"distinct/internal/trainset"
)

// The benchmark world: the full default configuration whose ambiguous names
// carry the exact Table 1 profile. Generated once and shared; harnesses are
// rebuilt per benchmark so each measures its own pipeline stages.
var (
	benchWorldOnce sync.Once
	benchWorldVal  *dblp.World
)

func benchWorld(b *testing.B) *dblp.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		w, err := dblp.Generate(dblp.DefaultConfig())
		if err != nil {
			panic(err)
		}
		benchWorldVal = w
	})
	return benchWorldVal
}

func benchHarness(b *testing.B) *experiments.Harness {
	b.Helper()
	h, err := experiments.NewHarnessWorld(benchWorld(b), experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkTable1NamesDataset regenerates the Table 1 dataset: generating
// the world with the injected ambiguous-name profile and tabulating it.
func BenchmarkTable1NamesDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := dblp.Generate(dblp.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		h, err := experiments.NewHarnessWorld(w, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows := h.Table1()
		if len(rows) != 10 {
			b.Fatalf("Table 1 has %d rows", len(rows))
		}
	}
}

// BenchmarkTable2Accuracy reproduces Table 2: the full DISTINCT pipeline
// (training + clustering all ten ambiguous names) at fixed min-sim.
func BenchmarkTable2Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		res, err := h.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Average.F1, "f-measure")
		b.ReportMetric(res.Average.Precision, "precision")
		b.ReportMetric(res.Average.Recall, "recall")
	}
}

// BenchmarkFigure4Variants reproduces Figure 4: six variants, with min-sim
// tuned per non-DISTINCT variant over the default grid.
func BenchmarkFigure4Variants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		rows, err := h.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].F1, "DISTINCT-f")
		b.ReportMetric(rows[4].F1, "unsup-resem-f")
		b.ReportMetric(rows[5].F1, "unsup-walk-f")
	}
}

// BenchmarkFigure5WeiWang reproduces Figure 5: grouping the 143 Wei Wang
// references and annotating mistakes against ground truth.
func BenchmarkFigure5WeiWang(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		res, err := h.Figure5("Wei Wang")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.F1, "f-measure")
		b.ReportMetric(float64(len(res.Clusters)), "clusters")
	}
}

// BenchmarkTrainingPipeline measures the stage the paper times at 62.1 s on
// full DBLP: automatic training-set construction, feature extraction and
// SVM training.
func BenchmarkTrainingPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		rep, err := h.Train()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.ResemAccuracy, "svm-accuracy")
	}
}

// BenchmarkAblationClusterMeasures runs the beyond-the-paper ablation of
// the cluster similarity measure.
func BenchmarkAblationClusterMeasures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		rows, err := h.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].F1, "geometric-f")
		b.ReportMetric(rows[1].F1, "arithmetic-f")
	}
}

// --- micro-benchmarks of the pipeline stages ---

func benchEngine(b *testing.B) (*core.Engine, *dblp.World) {
	b.Helper()
	w := benchWorld(b)
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Train: trainset.Options{
			NumPositive: 1000, NumNegative: 1000,
			Exclude: w.AmbiguousNames(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return e, w
}

// BenchmarkAttributeExpansion measures Section 2.1's rewrite of attribute
// values into tuples on the full world.
func BenchmarkAttributeExpansion(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reldb.ExpandAttributes(w.DB, dblp.TitleAttr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPair measures one reference pair scored along every join path:
// set resemblance (Definition 2) and both walk probabilities (Section 2.4),
// through the block kernel on a two-member block, with warm pools and a
// reused result buffer.
func BenchmarkPair(b *testing.B) {
	e, _ := benchEngine(b)
	refs := e.RefsForName("Wei Wang")
	ext := sim.NewExtractor(e.DB(), e.Paths())
	n1 := ext.Neighborhoods(refs[0])
	n2 := ext.Neighborhoods(refs[1])
	out := ext.Pair(n1, n2, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ext.Pair(n1, n2, out)
	}
}

// BenchmarkSimilarityMatrix measures the all-pairs weighted similarity
// computation for the hardest name (143 references). The engine is never
// trained, so every join path carries a weight. Next to the timings it
// reports the kernel's machine-independent work: pairs/op, the reference
// pairs filled, and key_visits/op, the (pair, shared neighbor tuple)
// visits of the postings kernel summed over the weighted join paths.
func BenchmarkSimilarityMatrix(b *testing.B) {
	e, _ := benchEngine(b)
	refs := e.RefsForName("Wei Wang")
	e.Similarities(refs) // warm the neighborhood cache
	ext := sim.NewExtractor(e.DB(), e.Paths())
	ix := ext.IndexBlock(ext.NeighborhoodsAll(refs, nil), nil)
	resemW, walkW := e.Weights()
	visits := 0
	for p := range e.Paths() {
		if resemW[p] != 0 || walkW[p] != 0 {
			visits += ix.Visits(p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Similarities(refs)
	}
	// Reported after the loop: ResetTimer deletes metrics reported before it.
	n := len(refs)
	b.ReportMetric(float64(n*(n-1)/2), "pairs/op")
	b.ReportMetric(float64(visits), "key_visits/op")
}

// BenchmarkClustering measures the agglomerative clustering (Section 4)
// with incremental similarity aggregation on the 143-reference name.
func BenchmarkClustering(b *testing.B) {
	e, _ := benchEngine(b)
	refs := e.RefsForName("Wei Wang")
	m := e.Similarities(refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Agglomerate(len(refs), m, cluster.Options{
			Measure: cluster.Combined, MinSim: core.DefaultMinSim,
		})
	}
}

// BenchmarkClusteringLarge is BenchmarkClustering at ~4x block size: a
// deterministic synthetic 572-reference block with planted groups (within-
// group similarities well above DefaultMinSim, cross-group well below),
// approximating the merge/prune mix of a large natural name. It sizes the
// flat-state engine's linear alive scans, row arena growth, and heap
// compaction at a scale the generated worlds don't reach.
func BenchmarkClusteringLarge(b *testing.B) {
	const n, groups = 572, 8
	rng := rand.New(rand.NewSource(7))
	m := cluster.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var r float64
			if i%groups == j%groups {
				r = 0.05 + 0.4*rng.Float64()
			} else {
				r = 0.002 * rng.Float64()
			}
			m.R[i][j], m.R[j][i] = r, r
			m.W[i][j] = r * (0.5 + rng.Float64())
			m.W[j][i] = r * (0.5 + rng.Float64())
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster.Agglomerate(n, m, cluster.Options{
			Measure: cluster.Combined, MinSim: core.DefaultMinSim,
		})
	}
}

// BenchmarkSVMTrainDCD and BenchmarkSVMTrainPegasos compare the two solvers
// on the real training features (solver ablation).
func benchSVMExamples(b *testing.B) []svm.Example {
	b.Helper()
	e, w := benchEngine(b)
	ts, err := trainset.Build(e.DB(), dblp.ReferenceRelation, dblp.ReferenceAttr, trainset.Options{
		NumPositive: 500, NumNegative: 500, Exclude: w.AmbiguousNames(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ext := sim.NewExtractor(e.DB(), e.Paths())
	ex := make([]svm.Example, len(ts.Pairs))
	for i, p := range ts.Pairs {
		resem, _ := ext.Features(p.R1, p.R2)
		ex[i] = svm.Example{X: resem, Y: p.Label}
	}
	return svm.FitScaler(ex).Transform(ex)
}

func BenchmarkSVMTrainDCD(b *testing.B) {
	ex := benchSVMExamples(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainDCD(ex, svm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMTrainPegasos(b *testing.B) {
	ex := benchSVMExamples(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainPegasos(ex, svm.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingSetConstruction measures Section 3's automatic rare-name
// training-set construction alone.
func BenchmarkTrainingSetConstruction(b *testing.B) {
	e, w := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainset.Build(e.DB(), dblp.ReferenceRelation, dblp.ReferenceAttr, trainset.Options{
			NumPositive: 1000, NumNegative: 1000, Exclude: w.AmbiguousNames(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldGeneration measures the synthetic DBLP substrate itself.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dblp.Generate(dblp.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLengthAblation reports DISTINCT's f-measure as the join-path
// length cap varies — the coverage/noise trade-off DESIGN.md calls out.
func BenchmarkPathLengthAblation(b *testing.B) {
	for _, maxLen := range []int{2, 3, 4} {
		b.Run(map[int]string{2: "len2", 3: "len3", 4: "len4"}[maxLen], func(b *testing.B) {
			w := benchWorld(b)
			for i := 0; i < b.N; i++ {
				e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
					RefRelation: dblp.ReferenceRelation,
					RefAttr:     dblp.ReferenceAttr,
					SkipExpand:  []string{dblp.TitleAttr},
					Supervised:  true,
					MaxPathLen:  maxLen,
					Train: trainset.Options{
						NumPositive: 500, NumNegative: 500,
						Exclude: w.AmbiguousNames(),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.TrainCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
				var sumF float64
				names := w.AmbiguousNames()
				for _, name := range names {
					pred, err := e.DisambiguateNameCtx(context.Background(), name)
					if err != nil {
						b.Fatal(err)
					}
					var gold [][]reldb.TupleID
					for _, c := range w.GoldClusters(name) {
						gold = append(gold, e.MapRefs(c))
					}
					m, err := scorePartition(pred, gold)
					if err != nil {
						b.Fatal(err)
					}
					sumF += m
				}
				b.ReportMetric(sumF/float64(len(names)), "avg-f")
			}
		})
	}
}

// scorePartition returns the pairwise f-measure of pred against gold.
func scorePartition(pred, gold [][]reldb.TupleID) (float64, error) {
	m, err := distinct.Score(pred, gold)
	if err != nil {
		return 0, err
	}
	return m.F1, nil
}
