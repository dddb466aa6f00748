package prop

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distinct/internal/reldb"
)

func dblpSchema() *reldb.Schema {
	return reldb.MustSchema(
		reldb.MustRelationSchema("Authors", reldb.Attribute{Name: "author", Key: true}),
		reldb.MustRelationSchema("Publish",
			reldb.Attribute{Name: "author", FK: "Authors"},
			reldb.Attribute{Name: "paper-key", FK: "Publications"},
		),
		reldb.MustRelationSchema("Publications",
			reldb.Attribute{Name: "paper-key", Key: true},
			reldb.Attribute{Name: "proc-key", FK: "Proceedings"},
		),
		reldb.MustRelationSchema("Proceedings",
			reldb.Attribute{Name: "proc-key", Key: true},
			reldb.Attribute{Name: "conference", FK: "Conferences"},
		),
		reldb.MustRelationSchema("Conferences",
			reldb.Attribute{Name: "conference", Key: true}),
	)
}

// miniDB: p1 at vldb97 by {wei, jiong}; p2 at sigmod02 by {wei, jiong, haixun}.
func miniDB(t testing.TB) (*reldb.Database, map[string]reldb.TupleID) {
	t.Helper()
	db := reldb.NewDatabase(dblpSchema())
	for _, a := range []string{"wei", "jiong", "haixun"} {
		db.MustInsert("Authors", a)
	}
	db.MustInsert("Conferences", "VLDB")
	db.MustInsert("Conferences", "SIGMOD")
	db.MustInsert("Proceedings", "vldb97", "VLDB")
	db.MustInsert("Proceedings", "sigmod02", "SIGMOD")
	db.MustInsert("Publications", "p1", "vldb97")
	db.MustInsert("Publications", "p2", "sigmod02")
	refs := map[string]reldb.TupleID{
		"wei@p1":    db.MustInsert("Publish", "wei", "p1"),
		"jiong@p1":  db.MustInsert("Publish", "jiong", "p1"),
		"wei@p2":    db.MustInsert("Publish", "wei", "p2"),
		"jiong@p2":  db.MustInsert("Publish", "jiong", "p2"),
		"haixun@p2": db.MustInsert("Publish", "haixun", "p2"),
	}
	return db, refs
}

func coauthorPath() reldb.JoinPath {
	return reldb.JoinPath{Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
	}}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// maxBwd returns the largest backward probability in the neighborhood.
func maxBwd(s SparseNeighborhood) float64 {
	m := 0.0
	for _, fb := range s.FBs {
		m = math.Max(m, fb.Bwd)
	}
	return m
}

func TestPropagateCoauthorsHandComputed(t *testing.T) {
	db, refs := miniDB(t)
	path := coauthorPath()
	if err := path.Validate(db.Schema); err != nil {
		t.Fatal(err)
	}
	jiong := db.LookupKey("Authors", "jiong")
	haixun := db.LookupKey("Authors", "haixun")
	for name, propagate := range engines {
		// From wei@p1 the only coauthor is jiong, via p1.
		nb := propagate(db, refs["wei@p1"], path)
		if len(nb.Keys) != 1 {
			t.Fatalf("%s: wei@p1 coauthors = %d tuples, want 1", name, len(nb.Keys))
		}
		fb, ok := lookup(nb, jiong)
		if !ok {
			t.Fatalf("%s: jiong missing from neighborhood", name)
		}
		// Forward: p1 has one other authorship -> prob 1, then one author -> 1.
		if !approx(fb.Fwd, 1.0) {
			t.Errorf("%s: Fwd(wei@p1 -> jiong) = %v, want 1", name, fb.Fwd)
		}
		// Backward: jiong has 2 authorships (1/2), its authorship maps to p1
		// with fanout 1, p1 has 2 authorships (1/2): total 1/4.
		if !approx(fb.Bwd, 0.25) {
			t.Errorf("%s: Bwd(jiong -> wei@p1) = %v, want 0.25", name, fb.Bwd)
		}

		// From wei@p2 the coauthors are jiong and haixun, each forward 1/2.
		nb = propagate(db, refs["wei@p2"], path)
		h, _ := lookup(nb, haixun)
		j, _ := lookup(nb, jiong)
		if !approx(h.Fwd, 0.5) || !approx(j.Fwd, 0.5) {
			t.Errorf("%s: Fwd from wei@p2: haixun %v jiong %v, want 0.5 each", name, h.Fwd, j.Fwd)
		}
		// Backward to wei@p2: haixun has 1 authorship (1), paper fanout 1,
		// p2 has 3 authorships (1/3): 1/3. jiong has 2 authorships: 1/6.
		if !approx(h.Bwd, 1.0/3) {
			t.Errorf("%s: Bwd(haixun -> wei@p2) = %v, want 1/3", name, h.Bwd)
		}
		if !approx(j.Bwd, 1.0/6) {
			t.Errorf("%s: Bwd(jiong -> wei@p2) = %v, want 1/6", name, j.Bwd)
		}
		if !approx(nb.SumFwd, 1.0) {
			t.Errorf("%s: SumFwd = %v, want 1", name, nb.SumFwd)
		}
		if got := maxBwd(nb); !approx(got, 1.0/3) {
			t.Errorf("%s: max Bwd = %v, want 1/3", name, got)
		}
	}
}

func TestPropagateConferencePath(t *testing.T) {
	db, refs := miniDB(t)
	path := reldb.JoinPath{Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publications", Attr: "proc-key", Forward: true},
		{Rel: "Proceedings", Attr: "conference", Forward: true},
	}}
	vldb := db.LookupKey("Conferences", "VLDB")
	for name, propagate := range engines {
		nb := propagate(db, refs["wei@p1"], path)
		fb, ok := lookup(nb, vldb)
		if !ok || len(nb.Keys) != 1 {
			t.Fatalf("%s: neighborhood = %+v", name, nb)
		}
		if !approx(fb.Fwd, 1.0) {
			t.Errorf("%s: Fwd = %v", name, fb.Fwd)
		}
		// Reverse from VLDB: 1 proceedings (1), 1 publication (1), 2 authorships (1/2).
		if !approx(fb.Bwd, 0.5) {
			t.Errorf("%s: Bwd = %v, want 0.5", name, fb.Bwd)
		}
	}
}

func TestPropagateDeadEnd(t *testing.T) {
	db := reldb.NewDatabase(dblpSchema())
	db.MustInsert("Authors", "solo")
	db.MustInsert("Conferences", "VLDB")
	db.MustInsert("Proceedings", "vldb97", "VLDB")
	db.MustInsert("Publications", "p1", "vldb97")
	ref := db.MustInsert("Publish", "solo", "p1")
	// Single-author paper: the coauthor walk dead-ends at the paper because
	// stepping back to the origin authorship is forbidden.
	for name, propagate := range engines {
		nb := propagate(db, ref, coauthorPath())
		if len(nb.Keys) != 0 {
			t.Fatalf("%s: solo paper produced coauthors: %+v", name, nb)
		}
		if nb.SumFwd != 0 {
			t.Errorf("%s: dead-end walk retained probability mass", name)
		}
	}
}

func TestPropagateInvalidInputs(t *testing.T) {
	db, _ := miniDB(t)
	author := db.LookupKey("Authors", "wei")
	ref := db.Relation("Publish").TupleIDs()[0]
	for name, propagate := range engines {
		if nb := propagate(db, author, coauthorPath()); nb.Keys != nil {
			t.Errorf("%s: propagation from wrong relation returned a neighborhood", name)
		}
		if nb := propagate(db, ref, reldb.JoinPath{Start: "Publish"}); nb.Keys != nil {
			t.Errorf("%s: propagation along empty path returned a neighborhood", name)
		}
	}
}

func TestPropagateAllOrder(t *testing.T) {
	db, refs := miniDB(t)
	ids := []reldb.TupleID{refs["wei@p1"], refs["wei@p2"]}
	for name, propagate := range engines {
		nbs := make([]SparseNeighborhood, len(ids))
		for i, r := range ids {
			nbs[i] = propagate(db, r, coauthorPath())
		}
		if len(nbs[0].Keys) != 1 || len(nbs[1].Keys) != 2 {
			t.Errorf("%s: sizes = %d,%d want 1,2", name, len(nbs[0].Keys), len(nbs[1].Keys))
		}
	}
}

// buildRandomWorld creates a random multi-author world: every paper has at
// least 2 authors, so the coauthor walk has no dead ends.
func buildRandomWorld(seed int64) (*reldb.Database, []reldb.TupleID) {
	rng := rand.New(rand.NewSource(seed))
	db := reldb.NewDatabase(dblpSchema())
	nAuthors := 3 + rng.Intn(10)
	nPapers := 2 + rng.Intn(12)
	authors := make([]string, nAuthors)
	for i := range authors {
		authors[i] = "a" + string(rune('A'+i))
		db.MustInsert("Authors", authors[i])
	}
	db.MustInsert("Conferences", "C")
	db.MustInsert("Proceedings", "pr", "C")
	var refs []reldb.TupleID
	for p := 0; p < nPapers; p++ {
		key := "p" + string(rune('0'+p))
		db.MustInsert("Publications", key, "pr")
		k := 2 + rng.Intn(nAuthors-1)
		perm := rng.Perm(nAuthors)[:k]
		for _, ai := range perm {
			refs = append(refs, db.MustInsert("Publish", authors[ai], key))
		}
	}
	return db, refs
}

// TestPropagateConservation is the core probability invariant: on worlds
// without dead ends, the forward mass reaching the end relation is exactly 1
// and every backward probability lies in (0, 1].
func TestPropagateConservation(t *testing.T) {
	f := func(seed int64) bool {
		db, refs := buildRandomWorld(seed)
		path := coauthorPath()
		for name, propagate := range engines {
			for _, r := range refs {
				nb := propagate(db, r, path)
				if math.Abs(nb.SumFwd-1.0) > 1e-9 {
					t.Logf("%s seed %d: SumFwd = %v", name, seed, nb.SumFwd)
					return false
				}
				for _, fb := range nb.FBs {
					if fb.Fwd <= 0 || fb.Fwd > 1+1e-9 || fb.Bwd <= 0 || fb.Bwd > 1+1e-9 {
						t.Logf("%s seed %d: out-of-range probs %+v", name, seed, fb)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropagateBackwardConsistency checks that Bwd really is the forward
// probability of the reversed walk: for the conference path (which has no
// tuple-level backtracking), propagating forward from the conference tuple
// along the reversed path must reproduce Bwd.
func TestPropagateBackwardConsistency(t *testing.T) {
	f := func(seed int64) bool {
		db, refs := buildRandomWorld(seed)
		path := reldb.JoinPath{Start: "Publish", Steps: []reldb.Step{
			{Rel: "Publish", Attr: "paper-key", Forward: true},
			{Rel: "Publications", Attr: "proc-key", Forward: true},
			{Rel: "Proceedings", Attr: "conference", Forward: true},
		}}
		rev := path.Reverse(db.Schema)
		for name, propagate := range engines {
			for _, r := range refs[:1] {
				nb := propagate(db, r, path)
				for i, tID := range nb.Keys {
					back, _ := lookup(propagate(db, tID, rev), r)
					if math.Abs(back.Fwd-nb.FBs[i].Bwd) > 1e-9 {
						t.Logf("%s seed %d: Bwd=%v but reverse-walk Fwd=%v", name, seed, nb.FBs[i].Bwd, back.Fwd)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
