// Package prop implements probability propagation along join paths
// (DISTINCT, Section 2.2). For a reference r and a join path P it computes,
// for every neighbor tuple t in NB_P(r), both
//
//   - Prob_P(r → t): the probability of reaching t from r by walking P,
//     splitting probability mass uniformly over joinable tuples at each hop,
//     and
//   - Prob_P̄(t → r): the probability of reaching r from t by walking the
//     reverse path, again splitting uniformly at each hop.
//
// Both quantities fall out of a single depth-first traversal, exactly as
// Figure 3 of the paper sketches: a path instance (r = t0, t1, …, tk = t)
// contributes Π 1/fanout(t_{i-1}) to the forward probability and
// Π 1/revFanout(t_i) to the backward probability, where revFanout counts
// the tuples joinable with t_i across the inverted i-th step.
//
// The forward walker never steps back to the tuple it arrived from (a
// reference's own authorship tuple must not count as its own coauthor); the
// backward fanout is taken over all joinable tuples, matching the worked
// numbers in the paper's Figure 3.
package prop

import (
	"math"
	"slices"

	"distinct/internal/reldb"
)

// FB holds the two directed probabilities between a reference and one of its
// neighbor tuples.
type FB struct {
	Fwd float64 // Prob_P(reference → tuple)
	Bwd float64 // Prob_P̄(tuple → reference)
}

// Neighborhood maps each neighbor tuple of a reference (along one join path)
// to its forward/backward probabilities. It is the unit both similarity
// measures consume.
type Neighborhood map[reldb.TupleID]FB

// TotalFwd returns the total forward probability mass that reached the end
// relation. It is exactly 1 unless some intermediate tuple had no joinable
// continuation (a dead end), in which case that branch's mass is lost.
// The sum runs in ascending key order — not Go's randomised map order — so
// repeated calls (and debug output built on them) are bit-identical, and
// the value matches the sparse form's SumFwd exactly.
func (n Neighborhood) TotalFwd() float64 {
	var s float64
	for _, k := range n.sortedKeys() {
		s += n[k].Fwd
	}
	return s
}

// MaxBwd returns the largest backward probability in the neighborhood.
// Iteration is in sorted key order like TotalFwd; max is order-independent,
// but keeping one iteration discipline means every derived debug value is
// reproducible by construction.
func (n Neighborhood) MaxBwd() float64 {
	m := 0.0
	for _, k := range n.sortedKeys() {
		m = math.Max(m, n[k].Bwd)
	}
	return m
}

// sortedKeys returns the neighbor tuple IDs in ascending order.
func (n Neighborhood) sortedKeys() []reldb.TupleID {
	keys := make([]reldb.TupleID, 0, len(n))
	for t := range n {
		keys = append(keys, t)
	}
	slices.Sort(keys)
	return keys
}

// Propagate walks the join path from the tuple containing the reference and
// returns its neighborhood. The path must be valid for db's schema and must
// start at the relation containing start; otherwise the result is empty.
func Propagate(db *reldb.Database, start reldb.TupleID, path reldb.JoinPath) Neighborhood {
	if db.Tuple(start).Rel.Name != path.Start || len(path.Steps) == 0 {
		return nil
	}
	nb := make(Neighborhood)
	var buf []reldb.TupleID
	var walk func(cur, cameFrom reldb.TupleID, depth int, fwd, bwd float64)
	walk = func(cur, cameFrom reldb.TupleID, depth int, fwd, bwd float64) {
		if depth == len(path.Steps) {
			fb := nb[cur]
			fb.Fwd += fwd
			fb.Bwd += bwd
			nb[cur] = fb
			return
		}
		step := path.Steps[depth]
		buf = db.Joinable(cur, step, cameFrom, buf[:0])
		if len(buf) == 0 {
			return
		}
		split := fwd / float64(len(buf))
		// Joinable appends into the shared buffer, so copy before recursing.
		next := make([]reldb.TupleID, len(buf))
		copy(next, buf)
		for _, t := range next {
			rev := db.JoinFanout(t, step.Inverse())
			if rev == 0 {
				// Unreachable when t was just reached across this edge, but
				// guard against division by zero on malformed data.
				continue
			}
			walk(t, cur, depth+1, split, bwd/float64(rev))
		}
	}
	walk(start, reldb.InvalidTuple, 0, 1, 1)
	return nb
}
