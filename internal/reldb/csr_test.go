package reldb

import "testing"

// csrWorld is a small two-hop world with skewed fanouts: three authors,
// two papers, five authorships. It exercises forward rows (exactly one
// edge), reverse rows (several edges), and in-degrees larger than one.
func csrWorld(t *testing.T) *Database {
	t.Helper()
	schema := MustSchema(
		MustRelationSchema("Authors", Attribute{Name: "author", Key: true}),
		MustRelationSchema("Papers", Attribute{Name: "key", Key: true}),
		MustRelationSchema("Publish",
			Attribute{Name: "author", FK: "Authors"},
			Attribute{Name: "key", FK: "Papers"},
		),
	)
	db := NewDatabase(schema)
	for _, a := range []string{"ann", "bob", "cid"} {
		db.MustInsert("Authors", a)
	}
	db.MustInsert("Papers", "p1")
	db.MustInsert("Papers", "p2")
	db.MustInsert("Publish", "ann", "p1")
	db.MustInsert("Publish", "bob", "p1")
	db.MustInsert("Publish", "ann", "p2")
	db.MustInsert("Publish", "bob", "p2")
	db.MustInsert("Publish", "cid", "p2")
	return db
}

// checkHopAgainstJoinable asserts the CSR agrees with the database's own
// tuple-at-a-time access paths: each row's targets are Joinable's result
// (no exclusion) and each target's Rev is JoinFanout across the inverse.
func checkHopAgainstJoinable(t *testing.T, db *Database, from string, step Step) {
	t.Helper()
	h := CompileHop(db, from, step)
	rel := db.Relation(from)
	if h.NumFrom != rel.Size() || len(h.RowPtr) != rel.Size()+1 {
		t.Fatalf("%s via %+v: NumFrom=%d RowPtr len=%d, relation has %d", from, step, h.NumFrom, len(h.RowPtr), rel.Size())
	}
	var buf []TupleID
	for i, id := range rel.TupleIDs() {
		if got := h.FromOrdinal(id); got != i {
			t.Fatalf("%s via %+v: FromOrdinal(%d) = %d, want %d", from, step, id, got, i)
		}
		buf = db.Joinable(id, step, InvalidTuple, buf[:0])
		row := h.Col[h.RowPtr[i]:h.RowPtr[i+1]]
		if len(row) != len(buf) {
			t.Fatalf("%s ordinal %d via %+v: %d edges, Joinable says %d", from, i, step, len(row), len(buf))
		}
		for j, v := range row {
			if j > 0 && row[j-1] >= v {
				t.Fatalf("%s ordinal %d: row not strictly ascending: %v", from, i, row)
			}
			if got, want := h.ToIDs[v], buf[j]; got != want {
				t.Fatalf("%s ordinal %d edge %d: target %d, Joinable says %d", from, i, j, got, want)
			}
		}
	}
	for v := 0; v < h.NumTo; v++ {
		if got, want := int(h.Rev[v]), db.JoinFanout(h.ToIDs[v], step.Inverse()); got != want {
			t.Fatalf("%s via %+v: Rev[%d]=%d, JoinFanout says %d", from, step, v, got, want)
		}
	}
}

func TestCompileHopMatchesJoinable(t *testing.T) {
	db := csrWorld(t)
	steps := []struct {
		from string
		step Step
	}{
		{"Publish", Step{Rel: "Publish", Attr: "key", Forward: true}},
		{"Publish", Step{Rel: "Publish", Attr: "author", Forward: true}},
		{"Papers", Step{Rel: "Publish", Attr: "key", Forward: false}},
		{"Authors", Step{Rel: "Publish", Attr: "author", Forward: false}},
	}
	for _, s := range steps {
		checkHopAgainstJoinable(t, db, s.from, s.step)
	}
}

func TestCompileHopMalformed(t *testing.T) {
	db := csrWorld(t)
	cases := []struct {
		name string
		from string
		step Step
	}{
		{"unknown from relation", "Nope", Step{Rel: "Publish", Attr: "key", Forward: true}},
		{"unknown attr", "Publish", Step{Rel: "Publish", Attr: "nope", Forward: true}},
		{"step departs elsewhere", "Authors", Step{Rel: "Publish", Attr: "key", Forward: true}},
		{"reverse from wrong relation", "Papers", Step{Rel: "Publish", Attr: "author", Forward: false}},
	}
	for _, c := range cases {
		h := CompileHop(db, c.from, c.step)
		if h.NumEdges() != 0 {
			t.Errorf("%s: %d edges, want 0", c.name, h.NumEdges())
		}
		if len(h.RowPtr) != h.NumFrom+1 {
			t.Errorf("%s: RowPtr len %d, NumFrom %d", c.name, len(h.RowPtr), h.NumFrom)
		}
	}
}

func TestCompileHopDanglingFK(t *testing.T) {
	db := csrWorld(t)
	// Insert performs no FK validation, so a dangling reference is legal
	// data; the forward hop must simply skip the unresolvable edge.
	db.MustInsert("Publish", "ann", "no-such-paper")
	h := CompileHop(db, "Publish", Step{Rel: "Publish", Attr: "key", Forward: true})
	last := h.NumFrom - 1
	if got := h.RowPtr[last+1] - h.RowPtr[last]; got != 0 {
		t.Errorf("dangling FK compiled to %d edges, want 0", got)
	}
	if h.NumEdges() != 5 {
		t.Errorf("total edges = %d, want 5", h.NumEdges())
	}
}

func TestBackRefs(t *testing.T) {
	db := csrWorld(t)
	fwd := Step{Rel: "Publish", Attr: "key", Forward: true}
	rev := fwd.Inverse()
	parent := CompileHop(db, "Publish", fwd) // Publish -> Papers
	child := CompileHop(db, "Papers", rev)   // Papers -> Publish
	br := BackRefs(parent, child)
	if br == nil {
		t.Fatal("bounce pair produced no back references")
	}
	// Every Papers->Publish edge (t -> v) must mirror Publish->Papers
	// (v -> t): in this world every such mirror exists.
	for ti := 0; ti < child.NumFrom; ti++ {
		for g := child.RowPtr[ti]; g < child.RowPtr[ti+1]; g++ {
			v := child.Col[g]
			r := br[g]
			if r < 0 {
				t.Fatalf("edge %d->%d has no back reference", ti, v)
			}
			if parent.Col[r] != int32(ti) || r < parent.RowPtr[v] || r >= parent.RowPtr[v+1] {
				t.Fatalf("back reference of edge %d->%d points at parent edge %d (row %v)", ti, v, r, parent.Col[parent.RowPtr[v]:parent.RowPtr[v+1]])
			}
		}
	}

	// Hops over disjoint relations cannot mirror each other.
	authRev := Step{Rel: "Publish", Attr: "author", Forward: false}
	other := CompileHop(db, "Authors", authRev)
	if got := BackRefs(parent, other); got != nil {
		t.Errorf("unrelated hops produced back references: %v", got)
	}
}

func TestOrdinalOf(t *testing.T) {
	db := csrWorld(t)
	rel := db.Relation("Publish")
	for i, id := range rel.TupleIDs() {
		if got := rel.OrdinalOf(id); got != i {
			t.Errorf("OrdinalOf(%d) = %d, want %d", id, got, i)
		}
	}
	if got := rel.OrdinalOf(db.LookupKey("Papers", "p1")); got != -1 {
		t.Errorf("foreign tuple ordinal = %d, want -1", got)
	}
}
