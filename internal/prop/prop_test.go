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

func TestPropagateCoauthorsHandComputed(t *testing.T) {
	db, refs := miniDB(t)
	path := coauthorPath()
	if err := path.Validate(db.Schema); err != nil {
		t.Fatal(err)
	}

	// From wei@p1 the only coauthor is jiong, via p1.
	nb := Propagate(db, refs["wei@p1"], path)
	if len(nb) != 1 {
		t.Fatalf("wei@p1 coauthors = %d tuples, want 1", len(nb))
	}
	jiong := db.LookupKey("Authors", "jiong")
	fb, ok := nb[jiong]
	if !ok {
		t.Fatal("jiong missing from neighborhood")
	}
	// Forward: p1 has one other authorship -> prob 1, then one author -> 1.
	if !approx(fb.Fwd, 1.0) {
		t.Errorf("Fwd(wei@p1 -> jiong) = %v, want 1", fb.Fwd)
	}
	// Backward: jiong has 2 authorships (1/2), its authorship maps to p1
	// with fanout 1, p1 has 2 authorships (1/2): total 1/4.
	if !approx(fb.Bwd, 0.25) {
		t.Errorf("Bwd(jiong -> wei@p1) = %v, want 0.25", fb.Bwd)
	}

	// From wei@p2 the coauthors are jiong and haixun, each forward 1/2.
	nb = Propagate(db, refs["wei@p2"], path)
	haixun := db.LookupKey("Authors", "haixun")
	if !approx(nb[haixun].Fwd, 0.5) || !approx(nb[jiong].Fwd, 0.5) {
		t.Errorf("Fwd from wei@p2: haixun %v jiong %v, want 0.5 each", nb[haixun].Fwd, nb[jiong].Fwd)
	}
	// Backward to wei@p2: haixun has 1 authorship (1), paper fanout 1,
	// p2 has 3 authorships (1/3): 1/3. jiong has 2 authorships: 1/6.
	if !approx(nb[haixun].Bwd, 1.0/3) {
		t.Errorf("Bwd(haixun -> wei@p2) = %v, want 1/3", nb[haixun].Bwd)
	}
	if !approx(nb[jiong].Bwd, 1.0/6) {
		t.Errorf("Bwd(jiong -> wei@p2) = %v, want 1/6", nb[jiong].Bwd)
	}
	if !approx(nb.TotalFwd(), 1.0) {
		t.Errorf("TotalFwd = %v, want 1", nb.TotalFwd())
	}
	if got := nb.MaxBwd(); !approx(got, 1.0/3) {
		t.Errorf("MaxBwd = %v, want 1/3", got)
	}
}

func TestPropagateConferencePath(t *testing.T) {
	db, refs := miniDB(t)
	path := reldb.JoinPath{Start: "Publish", Steps: []reldb.Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publications", Attr: "proc-key", Forward: true},
		{Rel: "Proceedings", Attr: "conference", Forward: true},
	}}
	nb := Propagate(db, refs["wei@p1"], path)
	vldb := db.LookupKey("Conferences", "VLDB")
	fb, ok := nb[vldb]
	if !ok || len(nb) != 1 {
		t.Fatalf("neighborhood = %v", nb)
	}
	if !approx(fb.Fwd, 1.0) {
		t.Errorf("Fwd = %v", fb.Fwd)
	}
	// Reverse from VLDB: 1 proceedings (1), 1 publication (1), 2 authorships (1/2).
	if !approx(fb.Bwd, 0.5) {
		t.Errorf("Bwd = %v, want 0.5", fb.Bwd)
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
	nb := Propagate(db, ref, coauthorPath())
	if len(nb) != 0 {
		t.Fatalf("solo paper produced coauthors: %v", nb)
	}
	if nb.TotalFwd() != 0 {
		t.Error("dead-end walk retained probability mass")
	}
}

func TestPropagateInvalidInputs(t *testing.T) {
	db, _ := miniDB(t)
	author := db.LookupKey("Authors", "wei")
	if nb := Propagate(db, author, coauthorPath()); nb != nil {
		t.Error("propagation from wrong relation returned a neighborhood")
	}
	ref := db.Relation("Publish").TupleIDs()[0]
	if nb := Propagate(db, ref, reldb.JoinPath{Start: "Publish"}); nb != nil {
		t.Error("propagation along empty path returned a neighborhood")
	}
}

func TestPropagateAllOrder(t *testing.T) {
	db, refs := miniDB(t)
	ids := []reldb.TupleID{refs["wei@p1"], refs["wei@p2"]}
	nbs := make([]Neighborhood, len(ids))
	for i, r := range ids {
		nbs[i] = Propagate(db, r, coauthorPath())
	}
	if len(nbs[0]) != 1 || len(nbs[1]) != 2 {
		t.Errorf("sizes = %d,%d want 1,2", len(nbs[0]), len(nbs[1]))
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
		for _, r := range refs {
			nb := Propagate(db, r, path)
			if math.Abs(nb.TotalFwd()-1.0) > 1e-9 {
				t.Logf("seed %d: TotalFwd = %v", seed, nb.TotalFwd())
				return false
			}
			for _, fb := range nb {
				if fb.Fwd <= 0 || fb.Fwd > 1+1e-9 || fb.Bwd <= 0 || fb.Bwd > 1+1e-9 {
					t.Logf("seed %d: out-of-range probs %+v", seed, fb)
					return false
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
		for _, r := range refs[:1] {
			nb := Propagate(db, r, path)
			for tID, fb := range nb {
				back := Propagate(db, tID, rev)
				got := back[r].Fwd
				if math.Abs(got-fb.Bwd) > 1e-9 {
					t.Logf("seed %d: Bwd=%v but reverse-walk Fwd=%v", seed, fb.Bwd, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
