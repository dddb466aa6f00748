package core

import (
	"encoding/binary"

	"distinct/internal/reldb"
	"distinct/internal/vlru"
)

// Matrix reuse across sweeps: the min-sim grid, SetMinSim re-evaluations,
// and the Figure-4 / expansion ablation variants all re-cluster the same
// reference blocks under different weights or thresholds. The per-path
// matrices (PathMatrices) depend only on (reference list, database
// contents, path set) — never on weights or min-sim — so they can be
// computed once and re-combined cheaply (Combine is O(paths·n²) adds;
// the matrices cost propagation plus the all-pairs kernel).
//
// The cache is a vlru.Cache keyed on (path count, refs) at db.Version().
// The version is the database's mutation counter, so an Insert outdates
// every prior entry, which the next probe of its block purges. Entries are
// bounded by a byte budget with LRU eviction.
//
// Reuse is opt-in (Engine.EnableMatrixReuse): the one-shot batch path
// computes each block's matrices exactly once already, and caching there
// would only add memory pressure and bookkeeping to the hottest path.

// DefaultMatrixCacheBytes is the matrix cache's byte budget. A block of n
// references over p paths costs 16·p·n² bytes plus row headers; 64 MiB
// holds e.g. ~40 blocks of 100 refs × 20 paths.
const DefaultMatrixCacheBytes = 64 << 20

// newMatrixCache returns an empty matrix cache of the given byte budget,
// keyed by matKey. It is safe for concurrent use; the engine may compute
// blocks from parallel workers.
func newMatrixCache(budget int64) *vlru.Cache[string, *PathMatrices] {
	// Flat backing dominates; row headers are 24 bytes each.
	return vlru.New(budget, func(_ string, pm *PathMatrices) int64 {
		return int64(16*len(pm.RFlat) + 48*len(pm.R)*pm.NumRefs())
	})
}

// matKey encodes (numPaths, refs) exactly: the path count, then each
// reference, as 4-byte little-endian words.
func matKey(refs []reldb.TupleID, numPaths int) string {
	b := make([]byte, 4*(1+len(refs)))
	binary.LittleEndian.PutUint32(b, uint32(numPaths))
	for i, r := range refs {
		binary.LittleEndian.PutUint32(b[4*(i+1):], uint32(r))
	}
	return string(b)
}

// EnableMatrixReuse turns on the per-block PathMatrices cache with a
// DefaultMatrixCacheBytes budget. With the cache on, PathSimilarities and
// Similarities reuse matrices computed for the same (refs, database
// version) — across min-sim grid points, SetMinSim re-evaluations, and
// weight ablations — and their path_sims stage span carries reused=true on
// a hit. Enable before sharing the engine between goroutines; the cache
// itself is concurrency-safe.
func (e *Engine) EnableMatrixReuse() {
	e.matCache = newMatrixCache(DefaultMatrixCacheBytes)
}
