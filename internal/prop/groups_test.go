package prop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distinct/internal/reldb"
)

// untailed returns ct with every tail mark cleared: the same plans and
// walk, emitting every neighborhood flat. It is the reference the grouped
// form is held to.
func untailed(ct *CompiledTrie) *CompiledTrie {
	ref := *ct
	ref.nodes = slices.Clone(ct.nodes)
	for i := range ref.nodes {
		ref.nodes[i].tail = false
	}
	ref.desc = slices.Clone(ct.desc)
	for i := range ref.desc {
		ref.desc[i].tail = nil
	}
	return &ref
}

// groupStats counts what the neighborhoods of a check held. The last
// three count grouped windows by the cases of the bitmap that sums their
// SumFwd (Scratch.sumFwd).
type groupStats struct {
	grouped     int // grouped neighborhoods
	maxGroups   int // most groups in one neighborhood
	absent      int // exceptions for a child the walk did not reach
	fbExcept    int // exceptions for a reached child with its own FB
	widest      int // most entries in one neighborhood's flat form
	interleaved int // windows whose groups' rows interleave in key order
	multiWord   int // windows whose keys span two or more 64-bit words
	unaligned   int // windows whose lowest key is not word-aligned
}

func (g *groupStats) add(o groupStats) {
	g.grouped += o.grouped
	g.maxGroups = max(g.maxGroups, o.maxGroups)
	g.absent += o.absent
	g.fbExcept += o.fbExcept
	g.widest = max(g.widest, o.widest)
	g.interleaved += o.interleaved
	g.multiWord += o.multiWord
	g.unaligned += o.unaligned
}

// bitmapCasesSeen reports whether the windows counted in g took every
// case of the bitmap: interleaved groups, several words, an unaligned
// lowest key.
func (g *groupStats) bitmapCasesSeen() bool {
	return g.interleaved > 0 && g.multiWord > 0 && g.unaligned > 0
}

// addWindow counts the bitmap cases of grouped window nb.
func (g *groupStats) addWindow(nb *SparseNeighborhood) {
	segs := nb.AppendSegments(nil)
	lo, hi := segs[0].Keys[0], segs[0].Keys[len(segs[0].Keys)-1]
	interleaved := false
	for _, sg := range segs[1:] {
		// A group's segments ascend, so a segment below an earlier
		// one's end starts a group that interleaves with another.
		interleaved = interleaved || sg.Keys[0] < hi
		lo, hi = min(lo, sg.Keys[0]), max(hi, sg.Keys[len(sg.Keys)-1])
	}
	if interleaved {
		g.interleaved++
	}
	if lo>>6 != hi>>6 {
		g.multiWord++
	}
	if lo&63 != 0 {
		g.unaligned++
	}
}

// checkGroupedMatchesFlat propagates every start on ct and on its untailed
// reference and requires each grouped neighborhood, read through flat, to
// be the flat one bit for bit, SumFwd included. Non-tail paths must come
// out flat and identical.
func checkGroupedMatchesFlat(t *testing.T, tag string, ct *CompiledTrie, starts []reldb.TupleID) (st groupStats) {
	t.Helper()
	ref := untailed(ct)
	s, rs := ct.NewScratch(), ref.NewScratch()
	for _, id := range starts {
		got := views(ct.Propagate(id, s, nil))
		want := views(ref.Propagate(id, rs, nil))
		for pi, nb := range got {
			if want[pi].Tail != nil {
				t.Fatalf("%s: start %d path %s: the untailed reference grouped", tag, id, ct.paths[pi])
			}
			st.widest = max(st.widest, len(want[pi].Keys))
			if !sameBits(flat(nb), want[pi]) {
				t.Fatalf("%s: start %d path %s: grouped form does not expand to the flat one:\n got %+v\nexpanded %+v\nwant %+v",
					tag, id, ct.paths[pi], nb, flat(nb), want[pi])
			}
			if nb.Tail == nil {
				continue
			}
			st.grouped++
			st.addWindow(&nb)
			groups := 0
			for i, k := range nb.Keys {
				switch {
				case k >= 0:
					groups++
				case nb.FBs[i].Fwd > 0:
					st.fbExcept++
				default:
					st.absent++
				}
			}
			st.maxGroups = max(st.maxGroups, groups)
		}
	}
	return st
}

// TestGroupedMatchesFlat holds the grouped form to the untailed reference
// bit for bit on random DAG, cyclic and wide worlds; between them the
// worlds must group neighborhoods, merge three or more groups, store both
// kinds of exception, and take every case of the SumFwd bitmap.
func TestGroupedMatchesFlat(t *testing.T) {
	var st groupStats
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		var db *reldb.Database
		switch seed % 3 {
		case 0:
			db = randomSchemaWorld(rng)
		case 1:
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: true, dangling: seed%2 == 1})
		default:
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: seed%4 != 0, dangling: seed%2 == 1, wide: true})
		}
		st.add(checkWorldGrouped(t, fmt.Sprintf("world-%d", seed), db))
	}
	if st.grouped == 0 || st.maxGroups < 3 || st.absent == 0 || st.fbExcept == 0 || !st.bitmapCasesSeen() {
		t.Errorf("random worlds left the grouped form unexercised: %+v", st)
	}
}

// checkWorldGrouped runs checkGroupedMatchesFlat from a few starts of every
// FK-bearing relation of db, over its join paths of up to three steps.
func checkWorldGrouped(t *testing.T, tag string, db *reldb.Database) (st groupStats) {
	t.Helper()
	for _, rs := range db.Schema.Relations() {
		if len(rs.ForeignKeys()) == 0 || db.Relation(rs.Name).Size() == 0 {
			continue
		}
		paths := reldb.EnumerateJoinPaths(db.Schema, rs.Name, reldb.EnumerateOptions{MaxLen: 3})
		if len(paths) == 0 {
			continue
		}
		ids := db.Relation(rs.Name).TupleIDs()
		if len(ids) > 5 {
			ids = ids[:5]
		}
		st.add(checkGroupedMatchesFlat(t, tag+"/"+rs.Name, compile(db, NewTrie(paths)), ids))
	}
	return st
}

// TestGroupedTwoParents: a hop is grouped only when no child has two
// parents. Papers at distinct proceedings make Publications → Proceedings
// a one-to-one hop, grouped; one proceedings shared by two papers gives
// that child two parents, and the whole hop stays flat.
func TestGroupedTwoParents(t *testing.T) {
	path := reldb.JoinPath{Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publications", Attr: "proc-key", Forward: true},
	}}
	for _, shared := range []bool{false, true} {
		db := reldb.NewDatabase(dblpSchema())
		db.MustInsert("Authors", "wei")
		db.MustInsert("Conferences", "VLDB")
		for _, proc := range []string{"vldb97", "vldb98", "vldb99"} {
			db.MustInsert("Proceedings", proc, "VLDB")
		}
		db.MustInsert("Publications", "p1", "vldb97")
		db.MustInsert("Publications", "p2", "vldb98")
		if shared {
			db.MustInsert("Publications", "p3", "vldb98")
		} else {
			db.MustInsert("Publications", "p3", "vldb99")
		}
		var starts []reldb.TupleID
		for _, p := range []string{"p1", "p2", "p3"} {
			starts = append(starts, db.MustInsert("Publish", "wei", p))
		}
		ct := compile(db, NewTrie([]reldb.JoinPath{path}))
		for _, id := range starts {
			nb := ct.Propagate(id, nil, nil).Path(0)
			if grouped := nb.Tail != nil; grouped == shared {
				t.Fatalf("shared proceedings %v: start %d grouped = %v", shared, id, grouped)
			}
		}
		checkGroupedMatchesFlat(t, fmt.Sprintf("shared=%v", shared), ct, starts)
		checkCompiledAgainstDFS(t, fmt.Sprintf("shared=%v", shared), db, []reldb.JoinPath{path}, starts, 1e-12)
	}
}

// TestGroupedSharedNameCoauthors: two co-authors of one paper who share a
// name send mass back over two mirror edges of the name tuple, so the
// last hop of Publish → paper → co-authors → their names → every reference
// of those names gives each of them an FB of its own, stored as exceptions
// beside the group, while the start's own reference is an absent one on
// the bounce path.
func TestGroupedSharedNameCoauthors(t *testing.T) {
	db := reldb.NewDatabase(dblpSchema())
	for _, a := range []string{"wei", "li", "ming"} {
		db.MustInsert("Authors", a)
	}
	db.MustInsert("Conferences", "VLDB")
	db.MustInsert("Proceedings", "vldb97", "VLDB")
	for _, p := range []string{"p1", "p2", "p3"} {
		db.MustInsert("Publications", p, "vldb97")
	}
	var starts []reldb.TupleID
	for _, pa := range [][2]string{
		{"wei", "p1"}, {"li", "p1"}, {"li", "p1"}, {"ming", "p1"},
		{"li", "p2"}, {"li", "p3"}, {"ming", "p3"}, {"wei", "p3"},
	} {
		starts = append(starts, db.MustInsert("Publish", pa[0], pa[1]))
	}
	paths := []reldb.JoinPath{coauthorPath(), {Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
		{Rel: "Publish", Attr: "author", Forward: false},
	}}}
	ct := compile(db, NewTrie(paths))
	st := checkGroupedMatchesFlat(t, "shared-name", ct, starts)
	if st.fbExcept == 0 || st.absent == 0 {
		t.Fatalf("shared-name co-authors stored no FB or no absent exception: %+v", st)
	}
	checkCompiledAgainstDFS(t, "shared-name", db, paths, starts, 1e-12)
}
