package prop

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"distinct/internal/reldb"
)

// cyclicWorldOpts shapes cyclicRandomWorld's output.
type cyclicWorldOpts struct {
	// cyclic lets foreign keys reference any relation — later ones, earlier
	// ones, or the owner itself — so the schema graph may contain cycles
	// and self-loops (tuples can even reference themselves).
	cyclic bool
	// dangling makes ~15% of FK values reference keys that do not exist,
	// producing forward dead ends mid-path.
	dangling bool
	// wide makes every even-numbered relation hold 128–383 tuples and
	// every odd-numbered one 2–4, with each large relation's first FK into
	// a small one, so stepping back from the small relation reaches
	// frontiers of dozens of dense ordinals: the emission's bitmap scan.
	wide bool
}

// cyclicRandomWorld generalises randomSchemaWorld beyond DAG schemas: key
// spaces are fixed up front, so FK values can target any relation no matter
// the population order, including cycles, self-references, and (optionally)
// dangling keys. Insert performs no FK validation, so all of it is legal
// data the propagation engines must agree on.
func cyclicRandomWorld(rng *rand.Rand, opts cyclicWorldOpts) *reldb.Database {
	nRels := 2 + rng.Intn(4)
	sizes := make([]int, nRels)
	for i := range sizes {
		sizes[i] = 2 + rng.Intn(7)
		if opts.wide {
			sizes[i] = 2 + rng.Intn(3)
			if i%2 == 0 {
				sizes[i] = 128 + rng.Intn(256)
			}
		}
	}
	var schemas []*reldb.RelationSchema
	for i := 0; i < nRels; i++ {
		attrs := []reldb.Attribute{{Name: "k", Key: true}}
		nFKs := rng.Intn(3)
		if nFKs == 0 && (i == 0 || opts.wide && i%2 == 0) {
			nFKs = 1 // guarantee at least one start relation with an FK
		}
		for f := 0; f < nFKs; f++ {
			target := i // self-loop candidate
			if opts.wide && i%2 == 0 && f == 0 {
				target = 1 + 2*rng.Intn(nRels/2) // a small relation
			} else if !opts.cyclic {
				if i == 0 {
					break
				}
				target = rng.Intn(i)
			} else if rng.Intn(3) > 0 {
				target = rng.Intn(nRels)
			}
			attrs = append(attrs, reldb.Attribute{Name: fmt.Sprintf("f%d", f), FK: fmt.Sprintf("R%d", target)})
		}
		schemas = append(schemas, reldb.MustRelationSchema(fmt.Sprintf("R%d", i), attrs...))
	}
	db := reldb.NewDatabase(reldb.MustSchema(schemas...))
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("R%d", i)
		rs := db.Schema.Relation(name)
		for t := 0; t < sizes[i]; t++ {
			vals := make([]reldb.Value, len(rs.Attrs))
			for ai, a := range rs.Attrs {
				switch {
				case a.Key:
					vals[ai] = fmt.Sprintf("%s-%d", name, t)
				default: // every non-key attr here is an FK
					ti := 0
					fmt.Sscanf(a.FK, "R%d", &ti)
					if opts.dangling && rng.Intn(7) == 0 {
						vals[ai] = "missing"
					} else {
						vals[ai] = fmt.Sprintf("%s-%d", a.FK, rng.Intn(sizes[ti]))
					}
				}
			}
			db.MustInsert(name, vals...)
		}
	}
	return db
}

// diffSparse returns the largest absolute difference between two sparse
// neighborhoods over the union of their keys (absent keys count as zero),
// including the SumFwd aggregates.
func diffSparse(a, b SparseNeighborhood) float64 {
	d := math.Abs(a.SumFwd - b.SumFwd)
	i, j := 0, 0
	for i < len(a.Keys) || j < len(b.Keys) {
		switch {
		case j == len(b.Keys) || (i < len(a.Keys) && a.Keys[i] < b.Keys[j]):
			d = math.Max(d, math.Max(math.Abs(a.FBs[i].Fwd), math.Abs(a.FBs[i].Bwd)))
			i++
		case i == len(a.Keys) || a.Keys[i] > b.Keys[j]:
			d = math.Max(d, math.Max(math.Abs(b.FBs[j].Fwd), math.Abs(b.FBs[j].Bwd)))
			j++
		default:
			d = math.Max(d, math.Abs(a.FBs[i].Fwd-b.FBs[j].Fwd))
			d = math.Max(d, math.Abs(a.FBs[i].Bwd-b.FBs[j].Bwd))
			i++
			j++
		}
	}
	return d
}

// sameBits reports whether two neighborhoods hold the same keys and the
// same bits in every mass and in SumFwd.
func sameBits(a, b SparseNeighborhood) bool {
	if !slices.Equal(a.Keys, b.Keys) || len(a.FBs) != len(b.FBs) ||
		math.Float64bits(a.SumFwd) != math.Float64bits(b.SumFwd) {
		return false
	}
	for i, fb := range a.FBs {
		if math.Float64bits(fb.Fwd) != math.Float64bits(b.FBs[i].Fwd) ||
			math.Float64bits(fb.Bwd) != math.Float64bits(b.FBs[i].Bwd) {
			return false
		}
	}
	return true
}

// checkCompiledAgainstDFS compiles the trie and holds every path's
// compiled neighborhood within tol of the DFS oracle for each given start
// tuple. Every start whose ShareKey an earlier start already had is then
// propagated again with that start's result as its donor, and held to the
// oracle within tol and to its donor-free result bit for bit. It returns
// the number of such donor-taking starts.
func checkCompiledAgainstDFS(t *testing.T, tag string, db *reldb.Database, paths []reldb.JoinPath, starts []reldb.TupleID, tol float64) (shared int) {
	t.Helper()
	trie := NewTrie(paths)
	ct := compile(db, trie)
	scratch := ct.NewScratch()
	donors := make(map[int]*Neighborhoods)
	check := func(id reldb.TupleID, got, want []SparseNeighborhood, how string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighborhoods %s, want %d", tag, len(got), how, len(want))
		}
		for pi := range want {
			if d := diffSparse(got[pi], want[pi]); d > tol {
				t.Fatalf("%s: start %d path %s diverges by %g %s:\n got %+v\nwant %+v",
					tag, id, paths[pi], d, how, got[pi], want[pi])
			}
		}
	}
	for _, id := range starts {
		want := propagateOracle(db, id, trie)
		packed := ct.Propagate(id, scratch, nil)
		got := views(packed)
		check(id, flatAll(got), want, "")
		k := ct.ShareKey(id)
		if k < 0 {
			continue
		}
		donor, ok := donors[k]
		if !ok {
			donors[k] = packed
			continue
		}
		shared++
		borrowed := views(ct.Propagate(id, scratch, donor))
		check(id, flatAll(borrowed), want, "with a donor")
		for pi := range got {
			if borrowed[pi].Tail != got[pi].Tail || !sameBits(borrowed[pi], got[pi]) {
				t.Fatalf("%s: start %d path %s with a donor is not bit-identical:\n got %+v\nwant %+v",
					tag, id, paths[pi], borrowed[pi], got[pi])
			}
		}
	}
	return shared
}

// TestCompiledMatchesDFSPaper pins the compiled engine to the paper's
// hand-computed fixtures, bounce path included.
func TestCompiledMatchesDFSPaper(t *testing.T) {
	db, refs := miniDB(t)
	paths := []reldb.JoinPath{
		coauthorPath(),
		{Start: "Publish", Steps: []reldb.Step{
			{Rel: "Publish", Attr: "paper-key", Forward: true},
			{Rel: "Publications", Attr: "proc-key", Forward: true},
			{Rel: "Proceedings", Attr: "conference", Forward: true},
		}},
	}
	var starts []reldb.TupleID
	for _, id := range refs {
		starts = append(starts, id)
	}
	if checkCompiledAgainstDFS(t, "paper", db, paths, starts, 1e-12) == 0 {
		t.Error("no start borrowed from a co-author's donor")
	}

	// And the hand-computed values directly: from wei@p1 the only coauthor
	// is jiong (forward 1, backward 1/4).
	nb := engines["compiled"](db, refs["wei@p1"], coauthorPath())
	if len(nb.Keys) != 1 {
		t.Fatalf("wei@p1 coauthors = %d, want 1", len(nb.Keys))
	}
	if fb, ok := lookup(nb, db.LookupKey("Authors", "jiong")); !ok || !approx(fb.Fwd, 1) || !approx(fb.Bwd, 0.25) {
		t.Fatalf("wei@p1 -> jiong = %+v, want {1 0.25}", fb)
	}
}

// TestCompiledMatchesDFSDeadEnd: a single-author paper dead-ends the
// coauthor walk; the compiled result must be the zero neighborhood, like
// the oracle's empty map finalised.
func TestCompiledMatchesDFSDeadEnd(t *testing.T) {
	db := reldb.NewDatabase(dblpSchema())
	db.MustInsert("Authors", "solo")
	db.MustInsert("Conferences", "VLDB")
	db.MustInsert("Proceedings", "vldb97", "VLDB")
	db.MustInsert("Publications", "p1", "vldb97")
	ref := db.MustInsert("Publish", "solo", "p1")
	nb := engines["compiled"](db, ref, coauthorPath())
	if nb.Keys != nil || nb.FBs != nil || nb.SumFwd != 0 {
		t.Fatalf("dead-end neighborhood = %+v, want zero value", nb)
	}
}

// TestCompiledWrongStartAndEmptyPath mirrors the oracle's input guards.
func TestCompiledWrongStartAndEmptyPath(t *testing.T) {
	db, _ := miniDB(t)
	author := db.LookupKey("Authors", "wei")
	ct := compile(db, NewTrie([]reldb.JoinPath{coauthorPath()}))
	if got := ct.Propagate(author, nil, nil).Path(0); len(got.Keys) != 0 {
		t.Errorf("wrong-relation start produced %+v", got)
	}
	ref := db.Relation("Publish").TupleIDs()[0]
	if nb := engines["compiled"](db, ref, reldb.JoinPath{Start: "Publish"}); len(nb.Keys) != 0 {
		t.Errorf("empty path produced %+v", nb)
	}
}

// TestCompiledMatchesDFSRandomDAG sweeps the existing DAG generator; some
// start must take a donor.
func TestCompiledMatchesDFSRandomDAG(t *testing.T) {
	shared := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomSchemaWorld(rng)
		_, n, _ := checkRandomWorld(t, fmt.Sprintf("dag-%d", seed), db)
		shared += n
	}
	if shared == 0 {
		t.Error("no start took a donor")
	}
}

// TestCompiledMatchesDFSRandomCyclic sweeps cyclic schemas (self-loops
// included) with and without dangling foreign keys; some start must take
// a donor.
func TestCompiledMatchesDFSRandomCyclic(t *testing.T) {
	shared := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		opts := cyclicWorldOpts{cyclic: true, dangling: seed%2 == 1}
		db := cyclicRandomWorld(rng, opts)
		_, n, _ := checkRandomWorld(t, fmt.Sprintf("cyclic-%d", seed), db)
		shared += n
	}
	if shared == 0 {
		t.Error("no start took a donor")
	}
}

// TestCompiledMatchesDFSWideFanOut holds the compiled engine to the oracle
// on worlds whose frontiers are wide, which the small random worlds above
// never reach; each world must emit a neighborhood of at least 32 entries,
// and between them the worlds' grouped windows must take every case of the
// SumFwd bitmap.
func TestCompiledMatchesDFSWideFanOut(t *testing.T) {
	var all groupStats
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		db := cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: seed%3 != 0, dangling: seed%2 == 1, wide: true})
		st, _, _ := checkRandomWorld(t, fmt.Sprintf("wide-%d", seed), db)
		if st.widest < 32 {
			t.Errorf("wide-%d: the widest neighborhood holds %d entries", seed, st.widest)
		}
		all.add(st)
	}
	if !all.bitmapCasesSeen() {
		t.Errorf("wide worlds left a case of the SumFwd bitmap unexercised: %+v", all)
	}
}

// FuzzCompiledPropagation holds the compiled engine to the DFS oracle on
// fuzzer-seeded random worlds: DAG schemas from randomSchemaWorld, or
// cyclicRandomWorld's schemas with cycles and self-loops (cyclic),
// dangling foreign keys (dangling) and wide fan-outs (wide). Starts that share a ShareKey are
// propagated again with a donor (see checkCompiledAgainstDFS), and every
// grouped neighborhood must expand to the untailed trie's flat one bit for
// bit (checkGroupedMatchesFlat), and every packed value must read back the
// records its propagation emitted (checkPacked).
func FuzzCompiledPropagation(f *testing.F) {
	f.Add(int64(0), false, false, false)
	f.Add(int64(1), true, false, false)
	f.Add(int64(2), true, true, false)
	f.Add(int64(3), false, true, false)
	f.Add(int64(5), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, cyclic, dangling, wide bool) {
		rng := rand.New(rand.NewSource(seed))
		var db *reldb.Database
		if cyclic || dangling || wide {
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: cyclic, dangling: dangling, wide: wide})
		} else {
			db = randomSchemaWorld(rng)
		}
		checkRandomWorld(t, fmt.Sprintf("seed-%d", seed), db)
	})
}

// checkRandomWorld enumerates join paths from every FK-bearing relation of
// a random world and checks compiled/DFS equivalence, grouped/flat
// identity and the packed value (checkPacked) from a few starts. It
// reports what the grouped/flat checks held, how many starts took a
// donor, and what the packed checks exercised.
func checkRandomWorld(t *testing.T, tag string, db *reldb.Database) (grouped groupStats, shared int, packed packedStats) {
	t.Helper()
	for _, rs := range db.Schema.Relations() {
		if len(rs.ForeignKeys()) == 0 || db.Relation(rs.Name).Size() == 0 {
			continue
		}
		paths := reldb.EnumerateJoinPaths(db.Schema, rs.Name, reldb.EnumerateOptions{MaxLen: 3})
		if len(paths) == 0 {
			continue
		}
		if len(paths) > 40 {
			paths = paths[:40]
		}
		ids := db.Relation(rs.Name).TupleIDs()
		if len(ids) > 3 {
			ids = ids[:3]
		}
		shared += checkCompiledAgainstDFS(t, tag+"/"+rs.Name, db, paths, ids, 1e-12)
		grouped.add(checkGroupedMatchesFlat(t, tag+"/"+rs.Name, compile(db, NewTrie(paths)), ids))
		packed.add(checkPacked(t, tag+"/"+rs.Name, db, paths, ids))
	}
	return grouped, shared, packed
}

// TestCompiledScratchReuse: reusing one scratch across many propagations
// must give the same results as a fresh scratch per call — the reset
// discipline (pos back to -1, edge buffers back to zero, the SumFwd bitmap
// back to all zero) is load-bearing. The wide world emits grouped windows
// with exceptions, so every grouped SumFwd goes through the bitmap.
func TestCompiledScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: true, dangling: true, wide: true})
	var start string
	for _, rs := range db.Schema.Relations() {
		if len(rs.ForeignKeys()) > 0 {
			start = rs.Name
			break
		}
	}
	paths := reldb.EnumerateJoinPaths(db.Schema, start, reldb.EnumerateOptions{MaxLen: 3})
	if len(paths) > 30 {
		paths = paths[:30]
	}
	ct := compile(db, NewTrie(paths))
	shared := ct.NewScratch()
	grouped, exceptions := 0, 0
	for _, id := range db.Relation(start).TupleIDs() {
		nbs := views(ct.Propagate(id, shared, nil))
		for _, nb := range nbs {
			if nb.Tail != nil {
				grouped++
				for _, k := range nb.Keys {
					if k < 0 {
						exceptions++
					}
				}
			}
		}
		got := flatAll(nbs)
		want := flatAll(views(ct.Propagate(id, ct.NewScratch(), nil)))
		for pi := range want {
			// Same engine, same order: bit-identical, not just within tol.
			if !sameBits(got[pi], want[pi]) {
				t.Fatalf("scratch reuse diverged on start %d path %s", id, paths[pi])
			}
		}
	}
	if grouped == 0 || exceptions == 0 {
		t.Fatalf("the world emitted %d grouped windows with %d exceptions; want both", grouped, exceptions)
	}
}

// TestCompiledAllocsCeiling pins the fast path's allocation count: with a
// warm scratch, one propagation allocates the value with its index cells
// and the two arrays every path's records are carved from — with or
// without a donor.
func TestCompiledAllocsCeiling(t *testing.T) {
	db, refs := miniDB(t)
	ct := compile(db, NewTrie(dblpPaths(db.Schema)))
	scratch := ct.NewScratch()
	start := refs["wei@p2"]
	donor := ct.Propagate(refs["jiong@p2"], scratch, nil)
	ct.Propagate(start, scratch, nil) // warm: grows frontier/acc/emission buffers
	const ceiling = 3
	for _, c := range []struct {
		name  string
		donor *Neighborhoods
	}{{"donor-free", nil}, {"with a donor", donor}} {
		if got := testing.AllocsPerRun(100, func() {
			ct.Propagate(start, scratch, c.donor)
		}); got > ceiling {
			t.Errorf("CSR propagation %s allocates %v per run, ceiling %v", c.name, got, ceiling)
		}
	}
}

// TestShareKey: starts share a key exactly when the trie has one root hop
// and their rows in it hold one edge to the same tuple; the key is that
// tuple's ordinal in its relation. A donor handed to a start without a key
// is ignored.
func TestShareKey(t *testing.T) {
	db, refs := miniDB(t)
	paths := dblpPaths(db.Schema)
	ct := compile(db, NewTrie(paths))
	p1, p2 := db.LookupKey("Publications", "p1"), db.LookupKey("Publications", "p2")
	pubs := db.Relation("Publications").TupleIDs()
	if got := ct.NumShareKeys(); got != len(pubs) {
		t.Errorf("NumShareKeys = %d, want %d", got, len(pubs))
	}
	for name, want := range map[string]reldb.TupleID{
		"wei@p1": p1, "jiong@p1": p1, "wei@p2": p2, "jiong@p2": p2, "haixun@p2": p2,
	} {
		if k := ct.ShareKey(refs[name]); k < 0 || k >= len(pubs) || pubs[k] != want {
			t.Errorf("ShareKey(%s) = %d, want the ordinal of %d in %v", name, k, want, pubs)
		}
	}
	n := reldb.TupleID(db.NumTuples())
	for _, id := range []reldb.TupleID{db.LookupKey("Authors", "wei"), -1, n, n + 5} {
		if got := ct.ShareKey(id); got != -1 {
			t.Errorf("ShareKey(%d) = %d, want -1", id, got)
		}
	}
	// Two root hops leave Publish: no start has a key.
	both := compile(db, NewTrie([]reldb.JoinPath{coauthorPath(),
		{Start: "Publish", Steps: []reldb.Step{{Rel: "Publish", Attr: "author", Forward: true}}}}))
	if got := both.ShareKey(refs["wei@p2"]); got != -1 {
		t.Errorf("two root hops: ShareKey = %d, want -1", got)
	}
	if got := both.NumShareKeys(); got != 0 {
		t.Errorf("two root hops: NumShareKeys = %d, want 0", got)
	}
	// From Publications the root row of p2 holds three edges, so p2 has no
	// key, and a donor (here: p1's own result) is ignored.
	back := []reldb.JoinPath{{Start: "Publications", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
	}}}
	bt := compile(db, NewTrie(back))
	if got := bt.ShareKey(p2); got != -1 {
		t.Errorf("three-edge root row: ShareKey = %d, want -1", got)
	}
	want := bt.Propagate(p2, nil, nil)
	if got := bt.Propagate(p2, nil, bt.Propagate(p1, nil, nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("ignored donor changed the result:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompiledStats: plan size counters reflect distinct hops, not trie
// nodes, and survive the shared-prefix dedupe.
func TestCompiledStats(t *testing.T) {
	db, _ := miniDB(t)
	paths := []reldb.JoinPath{coauthorPath()}
	ct := compile(db, NewTrie(paths))
	hops, edges := ct.Stats()
	if hops != 3 {
		t.Errorf("hops = %d, want 3", hops)
	}
	// Publish->Publications: 5 edges; Publications->Publish (reverse): 5;
	// Publish->Authors: 5.
	if edges != 15 {
		t.Errorf("edges = %d, want 15", edges)
	}
}

// TestAscendingMatchesSort holds the emission's ordinal ordering to
// slices.Sort on small and large, dense and sparse sets, with the extreme
// ordinals 0 and size−1, through one reused scratch, and checks it leaves
// its input alone.
func TestAscendingMatchesSort(t *testing.T) {
	// spread returns n distinct ordinals: 0, size−1, and n−2 more drawn
	// from between them, shuffled.
	spread := func(rng *rand.Rand, n, size int) []int32 {
		set := map[int32]bool{0: true, int32(size - 1): true}
		for len(set) < n {
			set[int32(1+rng.Intn(size-2))] = true
		}
		var out []int32
		for v := range set {
			out = append(out, v)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	rng := rand.New(rand.NewSource(1))
	s := &Scratch{}
	for _, n := range []int{2, 3, 33, 200} {
		for _, size := range []int{n, 2*n + 2, 1 << 20} {
			for rep := 0; rep < 3; rep++ {
				ords := spread(rng, n, size)
				want := slices.Clone(ords)
				slices.Sort(want)
				in := slices.Clone(ords)
				if got := s.ascending(ords); !slices.Equal(got, want) {
					t.Fatalf("n=%d size=%d: ascending = %v, want %v", n, size, got, want)
				}
				if !slices.Equal(ords, in) {
					t.Fatalf("n=%d size=%d: ascending modified its input", n, size)
				}
			}
		}
	}
}

// TestPackedNeighborhoodsIsolated: every path's neighborhood is a window
// of arrays shared by the whole result, capped at its own length, so an
// append to one path's keys or masses copies instead of overwriting the
// next path's entries.
func TestPackedNeighborhoodsIsolated(t *testing.T) {
	db, refs := miniDB(t)
	paths := dblpPaths(db.Schema)
	ct := compile(db, NewTrie(paths))
	got := views(ct.Propagate(refs["wei@p2"], ct.NewScratch(), nil))
	snapshot := make([]SparseNeighborhood, len(got))
	nonEmpty := 0
	for pi, nb := range got {
		if cap(nb.Keys) != len(nb.Keys) || cap(nb.FBs) != len(nb.FBs) {
			t.Fatalf("path %s: cap %d/%d beyond len %d", paths[pi], cap(nb.Keys), cap(nb.FBs), len(nb.Keys))
		}
		snapshot[pi] = SparseNeighborhood{Keys: slices.Clone(nb.Keys), FBs: slices.Clone(nb.FBs), SumFwd: nb.SumFwd, Tail: nb.Tail}
		if len(nb.Keys) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d non-empty neighborhoods; the check needs two", nonEmpty)
	}
	for pi := range got {
		_ = append(got[pi].Keys, reldb.InvalidTuple)
		_ = append(got[pi].FBs, FB{Fwd: -1, Bwd: -1})
	}
	for pi := range got {
		if !reflect.DeepEqual(got[pi], snapshot[pi]) {
			t.Fatalf("path %s changed after appends to the others:\n got %+v\nwant %+v", paths[pi], got[pi], snapshot[pi])
		}
	}
}
