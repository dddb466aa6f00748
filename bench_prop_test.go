// Micro-benchmarks of the compiled propagation plans: the CSR frontier
// engine on the full world, plus the cost of plan compilation itself. These
// are the headline numbers for the array-based propagation optimisation
// (DESIGN.md section 11); internal/prop's BenchmarkPropagate times the
// engine against its DFS test oracle.
package distinct_test

import (
	"context"
	"runtime"
	"testing"

	"distinct/internal/dblp"
	"distinct/internal/prop"
	"distinct/internal/sim"
)

// BenchmarkPropagate times one full multi-path propagation — every join
// path of the engine, one "Wei Wang" reference per iteration — on the
// compiled CSR frontier engine ("csr"), and a prefetch of every reference
// on a fresh extractor per iteration ("prefetch"): the sweep's shape, where
// co-author references borrow each paper's shared neighborhoods. The
// prefetch case also reports retained_B/ref: the live heap the returned
// block holds after a GC, per reference, apart from the garbage B/op
// counts too.
func BenchmarkPropagate(b *testing.B) {
	e, _ := benchEngine(b)
	refs := e.RefsForName("Wei Wang")
	trie := prop.NewTrie(e.Paths())

	b.Run("csr", func(b *testing.B) {
		ct := prop.CompileTrieCtx(context.Background(), e.DB(), trie, 0)
		s := ct.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := ct.Propagate(refs[i%len(refs)], s, nil); got.NumPaths() == 0 {
				b.Fatal("empty propagation")
			}
		}
	})
	b.Run("prefetch", func(b *testing.B) {
		all := e.DB().Relation(dblp.ReferenceRelation).TupleIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			x := sim.NewExtractor(e.DB(), e.Paths())
			b.StartTimer()
			nbs, err := x.NeighborhoodsCtx(context.Background(), all, 0)
			if err != nil || len(nbs) != len(all) {
				b.Fatalf("prefetched %d of %d references: %v", len(nbs), len(all), err)
			}
		}
		b.StopTimer()
		x := sim.NewExtractor(e.DB(), e.Paths())
		before := liveHeap()
		nbs, _ := x.NeighborhoodsCtx(context.Background(), all, 0)
		retained := liveHeap() - before
		runtime.KeepAlive(nbs)
		runtime.KeepAlive(x)
		b.ReportMetric(float64(retained)/float64(len(all)), "retained_B/ref")
	})
}

// liveHeap returns the bytes of live heap objects right after a GC. It
// collects twice: a sync.Pool keeps what it holds through one GC (its
// victim cache), so after a single GC the scratches pooled by this and
// earlier extractors would still count.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkPlanCompile measures compiling the whole path trie into CSR hops
// — the one-off cost an engine pays before the first propagation. Every
// compile builds each distinct hop afresh.
func BenchmarkPlanCompile(b *testing.B) {
	e, _ := benchEngine(b)
	trie := prop.NewTrie(e.Paths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := prop.CompileTrieCtx(context.Background(), e.DB(), trie, 0)
		if hops, edges := ct.Stats(); hops == 0 || edges == 0 {
			b.Fatalf("empty plan: %d hops, %d edges", hops, edges)
		}
	}
}
