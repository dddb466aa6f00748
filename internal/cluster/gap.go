package cluster

import (
	"math"
	"slices"
)

// Threshold-free stopping (an extension beyond the paper): instead of a
// global min-sim, cut each name's dendrogram at its largest similarity
// collapse. Same-object merges happen at similarities orders of magnitude
// above different-object merges (the merge profile of a typical name drops
// from ~1e-2 to ~1e-6 in one step), so the largest ratio between
// consecutive merge similarities marks the boundary.
//
// StopGap is a hybrid: names with a crisp gap get their own threshold;
// names whose profile decays gradually (large authors whose average-link
// similarity shrinks smoothly) keep the globally tuned MinSim. Gap
// detection alone misjudges exactly those, which is why the paper uses a
// tuned global min-sim in the first place. The profile and the partition
// come from one recorded dendrogram, cut at the chosen threshold, with a
// direct run only when that cut is not prefix-consistent.

// gapFloor keeps ratios finite when merge similarities reach zero.
const gapFloor = 1e-12

// DefaultGapRatio is the minimum similarity collapse treated as a real
// object boundary. Within one author the average-link similarity can
// easily step down 10× between consecutive merges (a large group absorbing
// a weakly connected reference), so only collapses of two orders of
// magnitude or more override the global threshold.
const DefaultGapRatio = 100

// relFloor flattens the sub-noise region: similarities below
// maxSim·relFloor are treated as equal, so the detected gap is the drop
// *into* the noise region, not a drop between two negligible values (a
// merge at 5e-6 followed by one at exactly 0 would otherwise always win).
const relFloor = 1e-5

// cutAtGapSims examines a full merge profile (the similarities of a
// MinSim-0 run, in merge order) and returns the threshold implied by the
// largest similarity gap: the geometric mean of the two merge similarities
// around the largest ratio drop, with both values floored at
// maxSim·relFloor. With fewer than two merges there is no interior gap and
// the returned threshold is 0 (merge everything); a second return of false
// signals that no meaningful gap exists (all merges within minRatio of each
// other), and StopGap falls back to MinSim.
func cutAtGapSims(sims []float64, minRatio float64) (float64, bool) {
	if minRatio <= 1 {
		minRatio = 10
	}
	if len(sims) < 2 {
		return 0, false
	}
	floor := max(slices.Max(sims)*relFloor, gapFloor)
	bestRatio := 0.0
	cut := 0.0
	for i := 0; i+1 < len(sims); i++ {
		hi := max(sims[i], floor)
		lo := max(sims[i+1], floor)
		// Merge similarities are not strictly monotone; only downward
		// steps are candidate boundaries.
		if lo > hi {
			continue
		}
		if r := hi / lo; r > bestRatio {
			bestRatio = r
			cut = math.Sqrt(hi * lo)
		}
	}
	if bestRatio < minRatio {
		return 0, false
	}
	return cut, true
}
