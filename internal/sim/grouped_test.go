package sim

import (
	"math/rand"

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
	for _, fb := range flatNB(nb).FBs {
		nb.SumFwd += fb.Fwd
	}
	return nb
}

// mixGrouped replaces about a third of the block's neighborhoods with
// grouped ones over tail, so one block mixes both forms on every path.
func mixGrouped(rng *rand.Rand, block [][]prop.SparseNeighborhood, tail *reldb.HopCSR) [][]prop.SparseNeighborhood {
	for i := range block {
		for p := range block[i] {
			if rng.Intn(3) == 0 {
				block[i][p] = randGrouped(rng, tail)
			}
		}
	}
	return block
}

// mixedBlock is randBlock in sparse form with grouped members mixed in,
// over a tail whose targets share randBlock's key range.
func mixedBlock(rng *rand.Rand, n, np, keyRange int) [][]prop.SparseNeighborhood {
	block := sparseBlock(randBlock(rng, n, np, keyRange))
	return mixGrouped(rng, block, randTail(rng, 1+rng.Intn(12), keyRange))
}
