package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"distinct/internal/prop"
)

// BenchmarkPairKernelSkew sweeps the size ratio between the two operands
// of the pair-at-a-time similarity kernel. The ratio at which gallop
// overtakes the linear merge justifies gallopFactor: below it the merge
// scan wins, above it binary-search galloping through the larger side
// wins. The measured table lives in RESULTS.txt.
func BenchmarkPairKernelSkew(b *testing.B) {
	const anchorSize = 64
	for _, ratio := range []int{1, 2, 4, 8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(ratio)))
		candSize := anchorSize * ratio
		keyRange := 4 * candSize
		anchor := randNB(rng, anchorSize, 0, keyRange).sparse()
		const nCands = 32
		cands := make([]prop.SparseNeighborhood, nCands)
		for i := range cands {
			cands[i] = randNB(rng, candSize, 0, keyRange).sparse()
		}
		b.Run(fmt.Sprintf("pair/ratio=%d", ratio), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				r, ab, ba := PairKernel(anchor, cands[i%nCands])
				sink += r + ab + ba
			}
			_ = sink
		})
	}
}
