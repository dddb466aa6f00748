// Benchmarks of the library features beyond the paper: parallel feature
// extraction, whole-database batch disambiguation, min-sim auto-tuning,
// merge profiling, and the DBLP XML loader.
package distinct_test

import (
	"context"
	"strings"
	"testing"

	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/dblpxml"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/trainset"
)

// trainedBenchEngine builds and trains an engine on the shared benchmark
// world with the given worker count.
func trainedBenchEngine(b *testing.B, workers int) *core.Engine {
	b.Helper()
	w := benchWorld(b)
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Workers:     workers,
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
	return e
}

// BenchmarkFeatureExtractionWorkers measures the parallel speedup of the
// dominant pipeline stage (the weighted similarity matrix of the 143-ref
// name, every join path weighted on the untrained engine). The speedup tracks the machine's core count; on a single-core
// host the variants only differ by goroutine overhead.
func BenchmarkFeatureExtractionWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[workers], func(b *testing.B) {
			w := benchWorld(b)
			e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
				RefRelation: dblp.ReferenceRelation,
				RefAttr:     dblp.ReferenceAttr,
				SkipExpand:  []string{dblp.TitleAttr},
				Workers:     workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			refs := e.RefsForName("Wei Wang")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Similarities(refs)
			}
		})
	}
}

// BenchmarkDisambiguateAll sweeps every name with 20+ references on a
// mid-sized world. (On the full benchmark world the sweep costs tens of
// seconds per op — common names like "James Smith" carry ~1000 references
// and the pairwise stage is quadratic — so this bench scales the world
// down instead of cutting coverage.)
func BenchmarkDisambiguateAll(b *testing.B) {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 6
	cfg.AuthorsPerCommunity = 50
	w, err := dblp.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Train: trainset.Options{
			NumPositive: 300, NumNegative: 300,
			Exclude: w.AmbiguousNames(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.DisambiguateAllCtx(context.Background(), core.BatchOptions{MinRefs: 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NamesExamined), "names")
		b.ReportMetric(float64(len(res.Split)), "split")
	}
}

// BenchmarkDisambiguateAllMetrics is BenchmarkDisambiguateAll with a live
// observability registry attached: the difference between the two is the
// full cost of instrumentation (atomic counters, stage spans, the per-name
// latency histogram) over the whole batch pipeline. Without a registry the
// instrumented call sites hit the nil fast path, so the plain benchmark
// doubles as the disabled-cost baseline.
func BenchmarkDisambiguateAllMetrics(b *testing.B) {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 6
	cfg.AuthorsPerCommunity = 50
	w, err := dblp.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Train: trainset.Options{
			NumPositive: 300, NumNegative: 300,
			Exclude: w.AmbiguousNames(),
		},
		Obs: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.DisambiguateAllCtx(context.Background(), core.BatchOptions{MinRefs: 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NamesExamined), "names")
		b.ReportMetric(float64(len(res.Split)), "split")
	}
}

// BenchmarkDisambiguateAllTrace is BenchmarkDisambiguateAll with a live
// trace recording spans, merge events, and 1/64 sampled pair provenance —
// the difference against the plain benchmark is the full tracing overhead.
// A fresh trace per iteration keeps the span tree from growing across
// iterations, which would make later iterations pay for earlier ones.
func BenchmarkDisambiguateAllTrace(b *testing.B) {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 6
	cfg.AuthorsPerCommunity = 50
	w, err := dblp.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Train: trainset.Options{
			NumPositive: 300, NumNegative: 300,
			Exclude: w.AmbiguousNames(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.New(trace.Options{SamplePairEvery: 64})
		ctx := trace.ContextWithSpan(context.Background(), tr.Root())
		res, err := e.DisambiguateAllCtx(ctx, core.BatchOptions{MinRefs: 20})
		if err != nil {
			b.Fatal(err)
		}
		tr.Finish()
		spans, events := tr.Counts()
		b.ReportMetric(float64(res.NamesExamined), "names")
		b.ReportMetric(float64(spans), "spans")
		b.ReportMetric(float64(events), "events")
	}
}

// BenchmarkTuneMinSim measures label-free threshold tuning.
func BenchmarkTuneMinSim(b *testing.B) {
	e := trainedBenchEngine(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.TuneMinSim(nil, 20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.F1, "tuned-f")
	}
}

// BenchmarkMergeProfile measures the full dendrogram trace of the hardest
// name.
func BenchmarkMergeProfile(b *testing.B) {
	e := trainedBenchEngine(b, 0)
	refs := e.RefsForName("Wei Wang")
	e.Similarities(refs) // fill the neighborhood store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := e.MergeProfile(refs); len(got) != len(refs)-1 {
			b.Fatalf("profile %d steps", len(got))
		}
	}
}

// BenchmarkDBLPXMLLoad measures the streaming XML loader on a synthetic
// 2000-record document.
func BenchmarkDBLPXMLLoad(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<dblp>\n")
	for i := 0; i < 2000; i++ {
		key := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		sb.WriteString("<inproceedings key=\"conf/x/")
		sb.WriteString(key)
		sb.WriteString(itoa(i))
		sb.WriteString("\"><author>Alice ")
		sb.WriteString(key)
		sb.WriteString("</author><author>Bob ")
		sb.WriteString(itoa(i % 97))
		sb.WriteString("</author><title>T.</title><booktitle>V")
		sb.WriteString(itoa(i % 13))
		sb.WriteString("</booktitle><year>")
		sb.WriteString(itoa(1990 + i%15))
		sb.WriteString("</year></inproceedings>\n")
	}
	sb.WriteString("</dblp>\n")
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := dblpxml.Load(strings.NewReader(doc), dblpxml.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != 2000 {
			b.Fatalf("records = %d", stats.Records)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
