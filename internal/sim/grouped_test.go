package sim

import (
	"math/rand"

	"distinct/internal/oracle"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// randTail builds a fan-out tail hop by hand: about a third of the keys in
// [0, keyRange) are its targets, and each target but one in eight hangs
// under one of parents source tuples, so no target has two parents. Half
// the tails deal the targets out in turn, so every row interleaves with
// every other and the rows' first targets ascend with the parents; the
// other half skew them, low parents taking most.
func randTail(rng *rand.Rand, parents, keyRange int) *reldb.HopCSR {
	var toIDs []reldb.TupleID
	for k := 0; k < keyRange; k++ {
		if rng.Intn(3) == 0 {
			toIDs = append(toIDs, reldb.TupleID(k))
		}
	}
	rows := make([][]int32, parents)
	rev := make([]int32, len(toIDs))
	dealt := rng.Intn(2) == 0
	for v := range toIDs {
		if rng.Intn(8) == 0 {
			continue // no parent reaches it
		}
		t := v % parents
		if !dealt {
			t = min(rng.Intn(parents), rng.Intn(parents))
		}
		rows[t] = append(rows[t], int32(v))
		rev[v] = 1
	}
	h := &reldb.HopCSR{NumFrom: parents, NumTo: len(toIDs), ToIDs: toIDs, Rev: rev, RowPtr: make([]int32, parents+1)}
	for t, r := range rows {
		for _, v := range r {
			h.Col = append(h.Col, v)
			h.ColIDs = append(h.ColIDs, toIDs[v])
		}
		h.RowPtr[t+1] = int32(len(h.Col))
	}
	return h
}

// randGrouped builds a grouped neighborhood over tail the way propagation
// lays one out: a random subset of the parents, each with the FB its
// children share (zero for one group in eight, so only its exceptions are
// reached), and exceptions, half of them absent, for no child, about one
// child in twenty or about one in five. A group that reaches nothing is
// left out, and SumFwd is summed over the expansion in key order.
func randGrouped(rng *rand.Rand, tail *reldb.HopCSR) prop.SparseNeighborhood {
	var keys []reldb.TupleID
	var fbs []prop.FB
	randFB := func() prop.FB { return prop.FB{Fwd: 0.01 + rng.Float64(), Bwd: rng.Float64()} }
	excEvery := []int{0, 20, 5}[rng.Intn(3)]
	for t := 0; t < tail.NumFrom; t++ {
		lo, hi := tail.RowPtr[t], tail.RowPtr[t+1]
		if lo == hi || rng.Intn(3) == 0 {
			continue
		}
		group, reached := randFB(), int(hi-lo)
		if rng.Intn(8) == 0 {
			group, reached = prop.FB{}, 0
		}
		glo := len(keys)
		keys, fbs = append(keys, reldb.TupleID(t)), append(fbs, group)
		for g := lo; g < hi; g++ {
			if excEvery == 0 || rng.Intn(excEvery) != 0 {
				continue
			}
			var fb prop.FB
			if rng.Intn(2) == 0 {
				fb = randFB()
			}
			if fb == group {
				continue
			}
			keys, fbs = append(keys, ^reldb.TupleID(g-lo)), append(fbs, fb)
			if group.Fwd > 0 && fb.Fwd == 0 {
				reached--
			} else if group.Fwd == 0 && fb.Fwd > 0 {
				reached++
			}
		}
		if reached == 0 {
			keys, fbs = keys[:glo], fbs[:glo]
		}
	}
	if len(keys) == 0 {
		return prop.SparseNeighborhood{}
	}
	nb := prop.SparseNeighborhood{Keys: keys, FBs: fbs, Tail: tail}
	for _, fb := range oracle.FlatNB(nb).FBs {
		nb.SumFwd += fb.Fwd
	}
	return nb
}

// groupPaths makes about half of the block's paths grouped. Along such a
// path every member's neighborhood is replaced by a grouped one over one
// fresh tail of 1 to maxParents parents whose targets span keyRange, as
// production keeps a path's tail on the plan's per-path descriptor: a path
// is grouped for every member or for none. One member in six repeats an
// earlier member's neighborhood and one in eight is empty; the rest come
// from randGrouped, with all of its regimes.
func groupPaths(rng *rand.Rand, block [][]prop.SparseNeighborhood, maxParents, keyRange int) [][]prop.SparseNeighborhood {
	if len(block) == 0 {
		return block
	}
	for p := range block[0] {
		if rng.Intn(2) == 0 {
			continue
		}
		tail := randTail(rng, 1+rng.Intn(maxParents), keyRange)
		for i := range block {
			switch {
			case i > 0 && rng.Intn(6) == 0:
				block[i][p] = block[rng.Intn(i)][p]
			case rng.Intn(8) == 0:
				block[i][p] = prop.SparseNeighborhood{}
			default:
				block[i][p] = randGrouped(rng, tail)
			}
		}
	}
	return block
}

// mixedBlock is randBlock in sparse form with about half of its paths
// grouped (groupPaths) over tails whose targets share randBlock's key
// range.
func mixedBlock(rng *rand.Rand, n, np, keyRange int) [][]prop.SparseNeighborhood {
	return groupPaths(rng, sparseBlock(randBlock(rng, n, np, keyRange)), 12, keyRange)
}

// shareStats counts, over every pair of a block's members along its
// grouped paths, the shared parents of each case the kernel's group term
// distinguishes.
type shareStats struct {
	plain    int // neither side has exceptions
	common   int // both sides have an exception at one position
	zeroFB   int // one side's group FB is zero: only exceptions can count
	allUnion int // the exceptions' union covers every child
}

// countShares adds the block's shared parents to st.
func (st *shareStats) countShares(block [][]prop.SparseNeighborhood) {
	type group struct {
		fb   prop.FB
		excs map[int]bool
	}
	groups := func(nb prop.SparseNeighborhood) map[reldb.TupleID]*group {
		out := make(map[reldb.TupleID]*group)
		var g *group
		for k, key := range nb.Keys {
			if key >= 0 {
				g = &group{fb: nb.FBs[k], excs: make(map[int]bool)}
				out[key] = g
			} else {
				g.excs[int(^key)] = true
			}
		}
		return out
	}
	for p := range block[0] {
		if !groupedPath(block, p) {
			continue
		}
		for i := range block {
			gi := groups(block[i][p])
			for j := i + 1; j < len(block); j++ {
				for t, gj := range groups(block[j][p]) {
					ga := gi[t]
					if ga == nil {
						continue
					}
					tail := block[i][p].Tail
					union := len(ga.excs)
					for e := range gj.excs {
						if ga.excs[e] {
							st.common++
						} else {
							union++
						}
					}
					switch {
					case len(ga.excs) == 0 && len(gj.excs) == 0:
						st.plain++
					case union == int(tail.RowPtr[t+1]-tail.RowPtr[t]):
						st.allUnion++
					}
					if ga.fb.Fwd == 0 || gj.fb.Fwd == 0 {
						st.zeroFB++
					}
				}
			}
		}
	}
}
