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
// Both quantities are defined by a depth-first traversal, exactly as Figure
// 3 of the paper sketches: a path instance (r = t0, t1, …, tk = t)
// contributes Π 1/fanout(t_{i-1}) to the forward probability and
// Π 1/revFanout(t_i) to the backward probability, where revFanout counts
// the tuples joinable with t_i across the inverted i-th step.
//
// The forward walker never steps back to the tuple it arrived from (a
// reference's own authorship tuple must not count as its own coauthor); the
// backward fanout is taken over all joinable tuples, matching the worked
// numbers in the paper's Figure 3.
//
// The engine (CompiledTrie, compiled.go) computes the same quantities level
// by level over CSR hop plans instead of instance by instance, and returns
// each reference's neighborhoods along all paths as one packed value
// (Neighborhoods, packed.go). The
// depth-first traversal itself lives on only as the package's test oracle
// (oracle_test.go), which every compiled result is held to within 1e-12.
package prop

import "distinct/internal/reldb"

// FB holds the two directed probabilities between a reference and one of its
// neighbor tuples.
type FB struct {
	Fwd float64 // Prob_P(reference → tuple)
	Bwd float64 // Prob_P̄(tuple → reference)
}

// SparseNeighborhood is one reference's neighborhood along one join path:
// the neighbor tuples, in strictly ascending TupleID order, each with its
// FB, and SumFwd, the precomputed Σ Fwd over all of them. It is stored in
// one of two forms.
//
// Flat (Tail == nil): Keys holds the neighbor tuple IDs in ascending order
// and FBs the matching probabilities (FBs[i] belongs to Keys[i]).
//
// Grouped (Tail != nil): the path's last hop, Tail, is a fan-out tail, a
// hop in which every target tuple has at most one in-edge (see groups.go),
// and the neighbors are the children of some of its source tuples. Keys
// and FBs then hold records, not neighbors: a group record (Keys[i] ≥ 0)
// names a parent by its source ordinal in Tail and gives the FB all of its
// children share; the exception records that follow it (Keys[i] < 0) each
// name one child by ^(its position in the parent's row), in row order, and
// give that child's own FB, an FB with Fwd == 0 marking a child the walk
// did not reach. The children themselves stay in Tail's CSR row (RowPtr,
// ColIDs) and are never copied. Read a grouped neighborhood through
// AppendSegments, which yields exactly the flat form's entries, bit for
// bit, group by group rather than in key order.
//
// A SparseNeighborhood is a view, not storage: Neighborhoods.Path hands
// one out by value over the arrays of a packed, immutable Neighborhoods,
// its slices capacity-capped, so appending to them copies. Pack builds a
// value from views.
//
// A neighborhood is built once and then only read, and every hot read is an
// intersection with another neighborhood: sorted parallel slices make that
// a linear merge-scan with no hashing, no pointer chasing, and a
// cache-friendly access pattern. Precomputing SumFwd makes the Jaccard
// denominator of the set resemblance an O(1) lookup instead of a rescan of
// both operands. SumFwd is accumulated in ascending key order, in both
// forms, so it — like every kernel built on the sorted form — is
// deterministic across runs.
//
// The forward mass reaching the end relation (SumFwd) is exactly 1 unless
// some intermediate tuple had no joinable continuation (a dead end), in
// which case that branch's mass is lost. The zero value is the empty
// neighborhood: nothing reachable, a wrong start relation, or an empty path.
type SparseNeighborhood struct {
	Keys   []reldb.TupleID
	FBs    []FB
	SumFwd float64
	Tail   *reldb.HopCSR // the fan-out tail of a grouped neighborhood; nil when flat
}
