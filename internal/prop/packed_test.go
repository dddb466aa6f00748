package prop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distinct/internal/reldb"
)

// packedStats counts what checkPacked exercised.
type packedStats struct {
	borrowed int // non-empty shared paths a borrower read from its owner
	highWord int // non-empty paths past the bitmap's first word
	grouped  int // non-empty paths read with a fan-out tail
}

func (p *packedStats) add(o packedStats) {
	p.borrowed += o.borrowed
	p.highWord += o.highWord
	p.grouped += o.grouped
}

// scratchViews returns, copied out, the records the last propagation left
// on s, path by path, each with the tail of the trie node its path ends
// at: the result before packing.
func scratchViews(ct *CompiledTrie, s *Scratch) []SparseNeighborhood {
	tails := make([]*reldb.HopCSR, len(ct.paths))
	for _, nd := range ct.nodes {
		if nd.tail {
			for _, pi := range nd.terminal {
				tails[pi] = nd.hop
			}
		}
	}
	out := make([]SparseNeighborhood, len(ct.paths))
	for p, sp := range s.spans {
		if sp.hi > sp.lo {
			out[p] = SparseNeighborhood{
				Keys:   slices.Clone(s.keys[sp.lo:sp.hi]),
				FBs:    slices.Clone(s.fbs[sp.lo:sp.hi]),
				SumFwd: sp.sum,
				Tail:   tails[p],
			}
		}
	}
	return out
}

// checkPacked compiles a trie over paths repeated past 64 of them, so the
// ownership bitmap spans two words or more, and propagates every start
// from it, donor-free and, for a start whose share key an earlier start
// had, with that start's value as donor and again with its own borrowing
// value as donor. Every Path(p) must equal the unpacked records bit for
// bit, Tail included, read from the donor's owner on shared paths. A
// borrower must point at the owner itself, whichever value it was handed,
// and share the owner's arrays. Starts outside the snapshot must all get
// the trie's one empty value.
func checkPacked(t *testing.T, tag string, db *reldb.Database, paths []reldb.JoinPath, starts []reldb.TupleID) (st packedStats) {
	t.Helper()
	var long []reldb.JoinPath
	for len(long) <= 64 {
		long = append(long, paths...)
	}
	ct := compile(db, NewTrie(long))
	s := ct.NewScratch()
	want := make(map[*Neighborhoods][]SparseNeighborhood) // unpacked, per donor-free value
	owners := make(map[int]*Neighborhoods)
	check := func(id reldb.TupleID, donor *Neighborhoods, how string) *Neighborhoods {
		t.Helper()
		n := ct.Propagate(id, s, donor)
		ref := scratchViews(ct, s)
		if n.donor != nil {
			if n.donor.donor != nil {
				t.Fatalf("%s: start %d %s: its donor borrows too", tag, id, how)
			}
			for _, pi := range ct.shared {
				ref[pi] = want[n.donor][pi]
			}
		}
		if n.NumPaths() != len(long) {
			t.Fatalf("%s: start %d %s: %d paths, want %d", tag, id, how, n.NumPaths(), len(long))
		}
		for p := range long {
			got := n.Path(p)
			if !sameBits(got, ref[p]) || got.Tail != ref[p].Tail ||
				cap(got.Keys) != len(got.Keys) || cap(got.FBs) != len(got.FBs) {
				t.Fatalf("%s: start %d path %d (%s) %s:\n got %+v\nwant %+v", tag, id, p, long[p], how, got, ref[p])
			}
			if len(got.Keys) == 0 {
				continue
			}
			if p >= 64 {
				st.highWord++
			}
			if got.Tail != nil {
				st.grouped++
			}
			if n.donor != nil && ct.desc[p].shared {
				if &got.Keys[0] != &n.donor.Path(p).Keys[0] {
					t.Fatalf("%s: start %d path %d %s: a shared path is not the owner's records", tag, id, p, how)
				}
				st.borrowed++
			}
		}
		if n.donor == nil {
			want[n] = ref
		}
		return n
	}
	for _, id := range starts {
		n := check(id, nil, "donor-free")
		k := ct.ShareKey(id)
		if k < 0 {
			continue
		}
		owner, ok := owners[k]
		if !ok {
			owners[k] = n
			continue
		}
		b := check(id, owner, "with a donor")
		if b.donor != owner {
			t.Fatalf("%s: start %d: donor %p, want the owner %p", tag, id, b.donor, owner)
		}
		if c := check(id, b, "with a borrower as donor"); c.donor != owner {
			t.Fatalf("%s: start %d: handed a borrower, points at %p, want the owner %p", tag, id, c.donor, owner)
		}
	}
	outside := []reldb.TupleID{reldb.InvalidTuple, reldb.TupleID(db.NumTuples()), reldb.TupleID(db.NumTuples() + 3)}
	for _, rs := range db.Schema.Relations() {
		if ids := db.Relation(rs.Name).TupleIDs(); rs.Name != paths[0].Start && len(ids) > 0 {
			outside = append(outside, ids[0])
		}
	}
	var donor *Neighborhoods
	for _, o := range owners {
		donor = o
		break
	}
	for _, id := range outside {
		for _, d := range []*Neighborhoods{nil, donor} {
			if n := ct.Propagate(id, s, d); n != ct.empty {
				t.Fatalf("%s: start %d outside the snapshot: not the trie's empty value", tag, id)
			}
		}
	}
	for p := range long {
		if v := ct.empty.Path(p); v.Keys != nil || v.FBs != nil || v.SumFwd != 0 || v.Tail != nil {
			t.Fatalf("%s: the empty value's path %d reads %+v", tag, p, v)
		}
	}
	return st
}

// TestPackedMatchesUnpacked holds the packed value to the records its
// propagation emitted, through checkRandomWorld on DAG, cyclic and wide
// worlds; between them the worlds must borrow non-empty shared paths, fill
// paths past the bitmap's first word and read grouped paths.
func TestPackedMatchesUnpacked(t *testing.T) {
	var st packedStats
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		var db *reldb.Database
		switch seed % 3 {
		case 0:
			db = randomSchemaWorld(rng)
		case 1:
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: true, dangling: seed%2 == 1})
		default:
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: seed%4 != 0, wide: true})
		}
		_, _, ps := checkRandomWorld(t, fmt.Sprintf("world-%d", seed), db)
		st.add(ps)
	}
	if st.borrowed == 0 || st.highWord == 0 || st.grouped == 0 {
		t.Errorf("random worlds left the packed value unexercised: %+v", st)
	}
}
