package sim

import (
	"context"
	"slices"
	"sync"
	"testing"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// raceWorld builds a small coauthor world plus the bounce path over it.
func raceWorld(t *testing.T) (*reldb.Database, []reldb.JoinPath, []reldb.TupleID) {
	t.Helper()
	schema := reldb.MustSchema(
		reldb.MustRelationSchema("Authors", reldb.Attribute{Name: "author", Key: true}),
		reldb.MustRelationSchema("Papers", reldb.Attribute{Name: "key", Key: true}),
		reldb.MustRelationSchema("Publish",
			reldb.Attribute{Name: "author", FK: "Authors"},
			reldb.Attribute{Name: "key", FK: "Papers"},
		),
	)
	db := reldb.NewDatabase(schema)
	authors := []string{"ann", "bob", "cid", "dee"}
	for _, a := range authors {
		db.MustInsert("Authors", a)
	}
	var refs []reldb.TupleID
	for pi, paper := range []string{"p1", "p2", "p3"} {
		db.MustInsert("Papers", paper)
		for ai := 0; ai <= pi+1 && ai < len(authors); ai++ {
			refs = append(refs, db.MustInsert("Publish", authors[ai], paper))
		}
	}
	paths := []reldb.JoinPath{
		{Start: "Publish", Steps: []reldb.Step{
			{Rel: "Publish", Attr: "key", Forward: true},
			{Rel: "Publish", Attr: "key", Forward: false},
			{Rel: "Publish", Attr: "author", Forward: true},
		}},
		{Start: "Publish", Steps: []reldb.Step{
			{Rel: "Publish", Attr: "key", Forward: true},
		}},
	}
	return db, paths, refs
}

// TestPlanCompileOnceAcrossExtractors hammers two extractors sharing one
// compiled plan from many goroutines with a cold neighborhood store. Run
// under -race this checks the plan is shared read-only and the pooled
// scratches stay per goroutine, however many goroutines race for each
// reference's first propagation.
func TestPlanCompileOnceAcrossExtractors(t *testing.T) {
	db, paths, refs := raceWorld(t)
	plan := prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(paths), 0)
	ex1, ex2 := New(plan, nil), New(plan, nil)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := ex1
			if w%2 == 1 {
				ex = ex2
			}
			for _, r := range refs {
				ex.Neighborhoods(r)
			}
		}(w)
	}
	wg.Wait()

	// Both extractors must agree with each other and with a fresh one.
	fresh := NewExtractor(db, paths)
	for _, r := range refs {
		n1, n2, n3 := views(ex1.Neighborhoods(r)), views(ex2.Neighborhoods(r)), views(fresh.Neighborhoods(r))
		for p := range paths {
			if !slices.Equal(n1[p].Keys, n2[p].Keys) || !slices.Equal(n1[p].Keys, n3[p].Keys) {
				t.Fatalf("extractors disagree on ref %d path %d", r, p)
			}
		}
	}

	// The two paths share the first hop: 3 distinct (from, step) hops in
	// total — Publish>key, Papers<key, Publish>author.
	if hops, edges := plan.Stats(); hops != 3 || edges == 0 {
		t.Errorf("plan.Stats() = (%d hops, %d edges), want 3 hops and nonzero edges", hops, edges)
	}
}

// TestNewExtractorCompilesUpFront: NewExtractor compiles the plan before it
// returns, so the first propagation borrows a scratch of a compiled plan
// and inserts after construction are invisible to the extractor.
func TestNewExtractorCompilesUpFront(t *testing.T) {
	db, paths, refs := raceWorld(t)
	ex := NewExtractor(db, paths)
	if hops, edges := ex.plan.Stats(); hops != 3 || edges == 0 {
		t.Errorf("plan.Stats() = (%d hops, %d edges), want 3 hops and nonzero edges", hops, edges)
	}
	if got, want := ex.plan.NumTuples(), db.NumTuples(); got != want {
		t.Errorf("plan.NumTuples() = %d, want %d", got, want)
	}
	late := db.MustInsert("Publish", "ann", "p3")
	for p, nb := range views(ex.Neighborhoods(late)) {
		if len(nb.Keys) != 0 {
			t.Errorf("reference inserted after NewExtractor: path %d has %d neighbors", p, len(nb.Keys))
		}
	}
	nbs := views(ex.Neighborhoods(refs[0]))
	if len(nbs) != len(paths) || len(nbs[1].Keys) != 1 {
		t.Fatalf("neighborhoods of a compiled reference: %d paths, %d papers; want %d paths, 1 paper", len(nbs), len(nbs[1].Keys), len(paths))
	}
}
