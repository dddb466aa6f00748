// Micro-benchmarks of the compiled propagation plans: the CSR frontier
// engine on the full world, plus the cost of plan compilation itself. These
// are the headline numbers for the array-based propagation optimisation
// (DESIGN.md section 11); internal/prop's BenchmarkPropagate times the
// engine against its DFS test oracle.
package distinct_test

import (
	"context"
	"testing"

	"distinct/internal/prop"
)

// BenchmarkPropagate times one full multi-path propagation — every join
// path of the engine, one "Wei Wang" reference per iteration — on the
// compiled CSR frontier engine.
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
			if got := ct.Propagate(refs[i%len(refs)], s); len(got) == 0 {
				b.Fatal("empty propagation")
			}
		}
	})
}

// BenchmarkPlanCompile measures compiling the whole path trie into CSR hops
// from a cold cache — the one-off cost an engine pays before the first
// propagation. Uncached so every iteration rebuilds the hop indexes instead
// of hitting the database's plan cache.
func BenchmarkPlanCompile(b *testing.B) {
	e, _ := benchEngine(b)
	trie := prop.NewTrie(e.Paths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := prop.CompileTrieUncached(e.DB(), trie)
		if hops, edges := ct.Stats(); hops == 0 || edges == 0 {
			b.Fatalf("empty plan: %d hops, %d edges", hops, edges)
		}
	}
}
