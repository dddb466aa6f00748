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

// checkCompiledAgainstDFS compiles the trie and holds every path's
// compiled neighborhood within tol of the DFS oracle for each given start
// tuple.
func checkCompiledAgainstDFS(t *testing.T, tag string, db *reldb.Database, paths []reldb.JoinPath, starts []reldb.TupleID, tol float64) {
	t.Helper()
	trie := NewTrie(paths)
	ct := compile(db, trie)
	scratch := ct.NewScratch()
	for _, id := range starts {
		want := propagateOracle(db, id, trie)
		got := ct.Propagate(id, scratch)
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighborhoods, want %d", tag, len(got), len(want))
		}
		for pi := range want {
			if d := diffSparse(got[pi], want[pi]); d > tol {
				t.Fatalf("%s: start %d path %s diverges by %g:\n got %+v\nwant %+v",
					tag, id, paths[pi], d, got[pi], want[pi])
			}
		}
	}
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
	checkCompiledAgainstDFS(t, "paper", db, paths, starts, 1e-12)

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
	if got := ct.Propagate(author, nil); len(got[0].Keys) != 0 {
		t.Errorf("wrong-relation start produced %+v", got[0])
	}
	ref := db.Relation("Publish").TupleIDs()[0]
	if nb := engines["compiled"](db, ref, reldb.JoinPath{Start: "Publish"}); len(nb.Keys) != 0 {
		t.Errorf("empty path produced %+v", nb)
	}
}

// TestCompiledMatchesDFSRandomDAG sweeps the existing DAG generator.
func TestCompiledMatchesDFSRandomDAG(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomSchemaWorld(rng)
		checkRandomWorld(t, fmt.Sprintf("dag-%d", seed), db)
	}
}

// TestCompiledMatchesDFSRandomCyclic sweeps cyclic schemas (self-loops
// included) with and without dangling foreign keys.
func TestCompiledMatchesDFSRandomCyclic(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		opts := cyclicWorldOpts{cyclic: true, dangling: seed%2 == 1}
		db := cyclicRandomWorld(rng, opts)
		checkRandomWorld(t, fmt.Sprintf("cyclic-%d", seed), db)
	}
}

// TestCompiledMatchesDFSWideFanOut holds the compiled engine to the oracle
// on worlds whose frontiers are large and dense enough for the emission's
// bitmap scan, which the small random worlds above never reach; each world
// must emit at least one such neighborhood.
func TestCompiledMatchesDFSWideFanOut(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		db := cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: seed%3 != 0, dangling: seed%2 == 1, wide: true})
		if !checkRandomWorld(t, fmt.Sprintf("wide-%d", seed), db) {
			t.Errorf("wide-%d: no emitted neighborhood takes the bitmap scan", seed)
		}
	}
}

// FuzzCompiledPropagation holds the compiled engine to the DFS oracle on
// fuzzer-seeded random worlds: DAG schemas from randomSchemaWorld, or
// cyclicRandomWorld's schemas with cycles and self-loops (cyclic) and
// dangling foreign keys (dangling).
func FuzzCompiledPropagation(f *testing.F) {
	f.Add(int64(0), false, false)
	f.Add(int64(1), true, false)
	f.Add(int64(2), true, true)
	f.Add(int64(3), false, true)
	f.Fuzz(func(t *testing.T, seed int64, cyclic, dangling bool) {
		rng := rand.New(rand.NewSource(seed))
		var db *reldb.Database
		if cyclic || dangling {
			db = cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: cyclic, dangling: dangling})
		} else {
			db = randomSchemaWorld(rng)
		}
		checkRandomWorld(t, fmt.Sprintf("seed-%d", seed), db)
	})
}

// checkRandomWorld enumerates join paths from every FK-bearing relation of
// a random world and checks compiled/DFS equivalence from a few starts. It
// reports whether some checked neighborhood was dense enough for the
// emission's bitmap scan.
func checkRandomWorld(t *testing.T, tag string, db *reldb.Database) (bitmap bool) {
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
		checkCompiledAgainstDFS(t, tag+"/"+rs.Name, db, paths, ids, 1e-12)
		if !bitmap {
			bitmap = takesBitmap(db, paths, ids)
		}
	}
	return bitmap
}

// takesBitmap reports whether any path's neighborhood from any of the
// starts meets the bitmap scan's size and density cutover.
func takesBitmap(db *reldb.Database, paths []reldb.JoinPath, starts []reldb.TupleID) bool {
	ct := compile(db, NewTrie(paths))
	for _, id := range starts {
		for pi, nb := range ct.Propagate(id, nil) {
			n := len(nb.Keys)
			if n < bitmapMinLen {
				continue
			}
			rel := db.Relation(paths[pi].End(db.Schema))
			lo, hi := rel.OrdinalOf(nb.Keys[0]), rel.OrdinalOf(nb.Keys[n-1])
			if hi>>6-lo>>6+1 <= bitmapWordsPerOrdinal*n {
				return true
			}
		}
	}
	return false
}

// TestCompiledScratchReuse: reusing one scratch across many propagations
// must give the same results as a fresh scratch per call — the reset
// discipline (pos back to -1, edge buffers back to zero) is load-bearing.
func TestCompiledScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := cyclicRandomWorld(rng, cyclicWorldOpts{cyclic: true, dangling: true})
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
	for _, id := range db.Relation(start).TupleIDs() {
		got := ct.Propagate(id, shared)
		want := ct.Propagate(id, ct.NewScratch())
		for pi := range want {
			// Same engine, same order: bit-identical, not just within tol.
			if diffSparse(got[pi], want[pi]) != 0 {
				t.Fatalf("scratch reuse diverged on start %d path %s", id, paths[pi])
			}
		}
	}
}

// TestCompiledAllocsCeiling pins the fast path's allocation count: with a
// warm scratch, one propagation allocates the result slice and the two
// arrays every path's neighborhood is carved from, whatever the number of
// paths.
func TestCompiledAllocsCeiling(t *testing.T) {
	db, refs := miniDB(t)
	ct := compile(db, NewTrie(dblpPaths(db.Schema)))
	scratch := ct.NewScratch()
	start := refs["wei@p2"]
	ct.Propagate(start, scratch) // warm: grows frontier/acc/emission buffers
	const ceiling = 3
	if got := testing.AllocsPerRun(100, func() {
		ct.Propagate(start, scratch)
	}); got > ceiling {
		t.Errorf("CSR propagation allocates %v per run, ceiling %v", got, ceiling)
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
// slices.Sort on both sides of its cutover: sizes at bitmapMinLen ± 1,
// ranges at the density limit ± 1 word, the extreme ordinals 0 and size−1,
// and dense and sparse sets. One scratch serves every case, so a bitmap
// word left set by one case would corrupt the next.
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
	type tc struct {
		name    string
		n, size int
	}
	var cases []tc
	for _, n := range []int{2, bitmapMinLen - 1, bitmapMinLen, bitmapMinLen + 1, 200} {
		limit := bitmapWordsPerOrdinal * n * 64 // largest range still scanned
		cases = append(cases,
			tc{fmt.Sprintf("dense/n=%d", n), n, n},
			tc{fmt.Sprintf("half/n=%d", n), n, 2*n + 2},
			tc{fmt.Sprintf("limit-1/n=%d", n), n, limit - 64},
			tc{fmt.Sprintf("limit/n=%d", n), n, limit},
			tc{fmt.Sprintf("limit+1/n=%d", n), n, limit + 64},
			tc{fmt.Sprintf("sparse/n=%d", n), n, 1 << 20},
		)
	}
	rng := rand.New(rand.NewSource(1))
	s := &Scratch{}
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			ords := spread(rng, c.n, c.size)
			want := slices.Clone(ords)
			slices.Sort(want)
			in := slices.Clone(ords)
			if got := s.ascending(ords); !slices.Equal(got, want) {
				t.Fatalf("%s: ascending = %v, want %v", c.name, got, want)
			}
			if !slices.Equal(ords, in) {
				t.Fatalf("%s: ascending modified its input", c.name)
			}
		}
		for w, word := range s.bits {
			if word != 0 {
				t.Fatalf("%s: bitmap word %d left set (%#x)", c.name, w, word)
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
	got := ct.Propagate(refs["wei@p2"], ct.NewScratch())
	snapshot := make([]SparseNeighborhood, len(got))
	nonEmpty := 0
	for pi, nb := range got {
		if cap(nb.Keys) != len(nb.Keys) || cap(nb.FBs) != len(nb.FBs) {
			t.Fatalf("path %s: cap %d/%d beyond len %d", paths[pi], cap(nb.Keys), cap(nb.FBs), len(nb.Keys))
		}
		snapshot[pi] = SparseNeighborhood{Keys: slices.Clone(nb.Keys), FBs: slices.Clone(nb.FBs), SumFwd: nb.SumFwd}
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
