package sim

import (
	"context"
	"sync"
	"testing"

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
// database from many goroutines with no plan compiled yet. Run under -race
// this checks each extractor's lazily compiled plan is published safely,
// however many goroutines race for its first propagation.
func TestPlanCompileOnceAcrossExtractors(t *testing.T) {
	db, paths, refs := raceWorld(t)
	ex1 := NewExtractor(db, paths)
	ex2 := NewExtractor(db, paths)

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

	// Both extractors must agree with each other and with the DFS path.
	for _, r := range refs {
		n1, n2 := ex1.Neighborhoods(r), ex2.Neighborhoods(r)
		for p := range paths {
			if len(n1[p].Keys) != len(n2[p].Keys) {
				t.Fatalf("extractors disagree on ref %d path %d", r, p)
			}
		}
	}

	// CompilePlansCtx after the fact is idempotent: the plan exists and its
	// stats are stable. The two paths share the first hop: 3 distinct
	// (from, step) hops in total — Publish>key, Papers<key, Publish>author.
	h1, e1 := ex1.CompilePlansCtx(context.Background())
	h2, e2 := ex2.CompilePlansCtx(context.Background())
	if h1 != h2 || e1 != e2 || h1 != 3 {
		t.Errorf("CompilePlansCtx stats diverge: (%d,%d) vs (%d,%d)", h1, e1, h2, e2)
	}
}

// TestCompilePlansEager: calling CompilePlansCtx first compiles immediately
// and reports the plan's size.
func TestCompilePlansEager(t *testing.T) {
	db, paths, refs := raceWorld(t)
	ex := NewExtractor(db, paths)
	hops, edges := ex.CompilePlansCtx(context.Background())
	if hops != 3 || edges == 0 {
		t.Errorf("CompilePlansCtx = (%d hops, %d edges), want 3 hops and nonzero edges", hops, edges)
	}
	nbs := ex.Neighborhoods(refs[0])
	if len(nbs) != len(paths) {
		t.Fatalf("neighborhoods after eager compile: %d, want %d", len(nbs), len(paths))
	}
}
