package reldb

import (
	"fmt"
	"strings"
	"testing"
)

// dblpSchema returns the schema of Figure 2 of the paper.
func dblpSchema(t testing.TB) *Schema {
	t.Helper()
	authors := MustRelationSchema("Authors", Attribute{Name: "author", Key: true})
	publish := MustRelationSchema("Publish",
		Attribute{Name: "author", FK: "Authors"},
		Attribute{Name: "paper-key", FK: "Publications"},
	)
	pubs := MustRelationSchema("Publications",
		Attribute{Name: "paper-key", Key: true},
		Attribute{Name: "title"},
		Attribute{Name: "proc-key", FK: "Proceedings"},
	)
	procs := MustRelationSchema("Proceedings",
		Attribute{Name: "proc-key", Key: true},
		Attribute{Name: "conference", FK: "Conferences"},
		Attribute{Name: "year"},
		Attribute{Name: "location"},
	)
	confs := MustRelationSchema("Conferences",
		Attribute{Name: "conference", Key: true},
		Attribute{Name: "publisher"},
	)
	return MustSchema(authors, publish, pubs, procs, confs)
}

// miniDBLP builds a small database: two papers at VLDB 1997 and SIGMOD 2002,
// with authors wei-wang, jiong-yang, haixun-wang.
func miniDBLP(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase(dblpSchema(t))
	for _, a := range []string{"wei-wang", "jiong-yang", "haixun-wang"} {
		db.MustInsert("Authors", a)
	}
	db.MustInsert("Conferences", "VLDB", "VLDB-End.")
	db.MustInsert("Conferences", "SIGMOD", "ACM")
	db.MustInsert("Proceedings", "vldb97", "VLDB", "1997", "Athens")
	db.MustInsert("Proceedings", "sigmod02", "SIGMOD", "2002", "Madison")
	db.MustInsert("Publications", "p1", "STING", "vldb97")
	db.MustInsert("Publications", "p2", "Clustering by pattern similarity", "sigmod02")
	db.MustInsert("Publish", "wei-wang", "p1")
	db.MustInsert("Publish", "jiong-yang", "p1")
	db.MustInsert("Publish", "haixun-wang", "p2")
	db.MustInsert("Publish", "wei-wang", "p2")
	db.MustInsert("Publish", "jiong-yang", "p2")
	return db
}

func TestRelationSchemaValidation(t *testing.T) {
	if _, err := NewRelationSchema(""); err == nil {
		t.Error("empty relation name accepted")
	}
	if _, err := NewRelationSchema("R", Attribute{Name: ""}); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewRelationSchema("R", Attribute{Name: "a"}, Attribute{Name: "a"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewRelationSchema("R", Attribute{Name: "a", Key: true, FK: "S"}); err == nil {
		t.Error("key+FK attribute accepted")
	}
	if _, err := NewRelationSchema("R", Attribute{Name: "a", Key: true}, Attribute{Name: "b", Key: true}); err == nil {
		t.Error("two primary keys accepted")
	}
}

func TestSchemaValidation(t *testing.T) {
	r := MustRelationSchema("R", Attribute{Name: "x", FK: "S"})
	if _, err := NewSchema(r); err == nil {
		t.Error("dangling FK accepted")
	}
	noKey := MustRelationSchema("S", Attribute{Name: "v"})
	if _, err := NewSchema(r, noKey); err == nil {
		t.Error("FK to keyless relation accepted")
	}
	dup := MustRelationSchema("R", Attribute{Name: "y", Key: true})
	if _, err := NewSchema(dup, dup); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestSchemaString(t *testing.T) {
	s := dblpSchema(t)
	str := s.String()
	for _, want := range []string{"Authors(author KEY)", "paper-key -> Publications", "Conferences(conference KEY, publisher)"} {
		if !strings.Contains(str, want) {
			t.Errorf("schema string missing %q:\n%s", want, str)
		}
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := miniDBLP(t)
	if got := db.NumTuples(); got != 14 {
		t.Errorf("NumTuples = %d, want 14", got)
	}
	id := db.LookupKey("Publications", "p1")
	if id == InvalidTuple {
		t.Fatal("p1 not found")
	}
	if got := db.Tuple(id).Val("title"); got != "STING" {
		t.Errorf("p1 title = %q", got)
	}
	if db.LookupKey("Publications", "nope") != InvalidTuple {
		t.Error("lookup of missing key succeeded")
	}
	if db.LookupKey("NoSuchRel", "x") != InvalidTuple {
		t.Error("lookup in missing relation succeeded")
	}
	if got := db.Tuple(id).Val("no-such-attr"); got != "" {
		t.Errorf("missing attribute value = %q, want empty", got)
	}
}

func TestInsertErrors(t *testing.T) {
	db := miniDBLP(t)
	if _, err := db.Insert("NoSuchRel", "x"); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if _, err := db.Insert("Authors", "a", "b"); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := db.Insert("Authors", "wei-wang"); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestReferencing(t *testing.T) {
	db := miniDBLP(t)
	refs := db.Referencing("Publish", "paper-key", "p2")
	if len(refs) != 3 {
		t.Fatalf("p2 has %d authorship tuples, want 3", len(refs))
	}
	for _, id := range refs {
		if got := db.Tuple(id).Val("paper-key"); got != "p2" {
			t.Errorf("referencing tuple has paper-key %q", got)
		}
	}
	if db.Referencing("Publish", "no-attr", "p2") != nil {
		t.Error("referencing via unknown attribute returned results")
	}
	if db.Referencing("NoSuchRel", "x", "p2") != nil {
		t.Error("referencing via unknown relation returned results")
	}
}

func TestJoinableForwardReverse(t *testing.T) {
	db := miniDBLP(t)
	pub := db.Referencing("Publish", "author", "wei-wang")[0] // wei-wang on p1
	fwd := Step{Rel: "Publish", Attr: "paper-key", Forward: true}
	got := db.Joinable(pub, fwd, InvalidTuple, nil)
	if len(got) != 1 || db.Tuple(got[0]).Val("paper-key") != "p1" {
		t.Fatalf("forward join gave %v", got)
	}
	paper := got[0]
	rev := fwd.Inverse()
	back := db.Joinable(paper, rev, InvalidTuple, nil)
	if len(back) != 2 {
		t.Fatalf("p1 has %d authorships, want 2", len(back))
	}
	// Excluding the origin removes it.
	back = db.Joinable(paper, rev, pub, nil)
	if len(back) != 1 || back[0] == pub {
		t.Fatalf("exclusion failed: %v", back)
	}
	if got := db.JoinFanout(paper, rev); got != 2 {
		t.Errorf("JoinFanout reverse = %d, want 2", got)
	}
	if got := db.JoinFanout(pub, fwd); got != 1 {
		t.Errorf("JoinFanout forward = %d, want 1", got)
	}
}

func TestJoinableWrongRelation(t *testing.T) {
	db := miniDBLP(t)
	author := db.LookupKey("Authors", "wei-wang")
	// A step whose From is Publish applied to an Authors tuple must yield nothing.
	st := Step{Rel: "Publish", Attr: "paper-key", Forward: true}
	if got := db.Joinable(author, st, InvalidTuple, nil); len(got) != 0 {
		t.Errorf("mismatched forward step returned %v", got)
	}
	// A reverse step whose target is Publications applied to an Authors tuple.
	st = Step{Rel: "Publish", Attr: "paper-key", Forward: false}
	if got := db.Joinable(author, st, InvalidTuple, nil); len(got) != 0 {
		t.Errorf("mismatched reverse step returned %v", got)
	}
	if got := db.JoinFanout(author, st); got != 0 {
		t.Errorf("mismatched reverse fanout = %d", got)
	}
}

func TestJoinPathValidateAndEnd(t *testing.T) {
	s := dblpSchema(t)
	coauthors := JoinPath{Start: "Publish", Steps: []Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
	}}
	if err := coauthors.Validate(s); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if got := coauthors.End(s); got != "Authors" {
		t.Errorf("End = %q, want Authors", got)
	}
	if got := coauthors.Len(); got != 3 {
		t.Errorf("Len = %d", got)
	}

	bad := JoinPath{Start: "Publish", Steps: []Step{{Rel: "Publish", Attr: "author", Forward: false}}}
	if err := bad.Validate(s); err == nil {
		t.Error("path starting with mismatched step accepted")
	}
	if err := (JoinPath{Start: "Nope"}).Validate(s); err == nil {
		t.Error("unknown start relation accepted")
	}
	unknown := JoinPath{Start: "Publish", Steps: []Step{{Rel: "Publish", Attr: "title", Forward: true}}}
	if err := unknown.Validate(s); err == nil {
		t.Error("non-FK edge accepted")
	}
}

func TestJoinPathReverse(t *testing.T) {
	s := dblpSchema(t)
	p := JoinPath{Start: "Publish", Steps: []Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publications", Attr: "proc-key", Forward: true},
	}}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	r := p.Reverse(s)
	if r.Start != "Proceedings" {
		t.Errorf("reverse starts at %q", r.Start)
	}
	if err := r.Validate(s); err != nil {
		t.Errorf("reversed path invalid: %v", err)
	}
	if got := r.End(s); got != "Publish" {
		t.Errorf("reverse ends at %q", got)
	}
	// Reversing twice is the identity.
	rr := r.Reverse(s)
	if rr.String() != p.String() {
		t.Errorf("double reverse = %s, want %s", rr, p)
	}
}

func TestJoinPathStrings(t *testing.T) {
	s := dblpSchema(t)
	p := JoinPath{Start: "Publish", Steps: []Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
	}}
	if got := p.String(); !strings.HasPrefix(got, "Publish>paper-key>") {
		t.Errorf("String = %q", got)
	}
	desc := p.Describe(s)
	if !strings.Contains(desc, "Publications") || !strings.Contains(desc, "<paper-key< Publish") {
		t.Errorf("Describe = %q", desc)
	}
}

func TestEnumerateJoinPaths(t *testing.T) {
	s := dblpSchema(t)
	refEdge := Step{Rel: "Publish", Attr: "author", Forward: true}
	paths := EnumerateJoinPaths(s, "Publish", EnumerateOptions{MaxLen: 3, ExcludeFirst: []Step{refEdge}})
	if len(paths) == 0 {
		t.Fatal("no paths enumerated")
	}
	byStr := make(map[string]JoinPath)
	for _, p := range paths {
		if err := p.Validate(s); err != nil {
			t.Fatalf("enumerated invalid path %s: %v", p, err)
		}
		if p.Len() > 3 {
			t.Errorf("path %s exceeds MaxLen", p)
		}
		if p.Steps[0] == refEdge {
			t.Errorf("path %s starts with the excluded reference edge", p)
		}
		if _, dup := byStr[p.String()]; dup {
			t.Errorf("duplicate path %s", p)
		}
		byStr[p.String()] = p
	}
	// The coauthor path must be present: Publish > paper > Publish(back) > author.
	want := JoinPath{Start: "Publish", Steps: []Step{
		{Rel: "Publish", Attr: "paper-key", Forward: true},
		{Rel: "Publish", Attr: "paper-key", Forward: false},
		{Rel: "Publish", Attr: "author", Forward: true},
	}}
	if _, ok := byStr[want.String()]; !ok {
		t.Errorf("coauthor path missing from enumeration")
	}
}

func TestEnumerateNoImmediateReversal(t *testing.T) {
	s := dblpSchema(t)
	paths := EnumerateJoinPaths(s, "Publish", EnumerateOptions{MaxLen: 2, NoImmediateReversal: true})
	for _, p := range paths {
		if p.Len() == 2 && p.Steps[1] == p.Steps[0].Inverse() {
			t.Errorf("bounce path %s not pruned", p)
		}
	}
	if EnumerateJoinPaths(s, "NoSuchRel", EnumerateOptions{MaxLen: 2}) != nil {
		t.Error("enumeration from unknown relation returned paths")
	}
	if EnumerateJoinPaths(s, "Publish", EnumerateOptions{MaxLen: 0}) != nil {
		t.Error("enumeration with MaxLen 0 returned paths")
	}
}

func TestEnumerateCounts(t *testing.T) {
	s := dblpSchema(t)
	// Length-1 paths from Publish: forward author, forward paper-key. No
	// reverse edges land... reverse steps start at referenced relations, so
	// from Publish only the two forward FK edges apply.
	paths := EnumerateJoinPaths(s, "Publish", EnumerateOptions{MaxLen: 1})
	if len(paths) != 2 {
		t.Fatalf("got %d length-1 paths from Publish, want 2: %v", len(paths), paths)
	}
}

func TestExpandAttributes(t *testing.T) {
	db := miniDBLP(t)
	ex, idMap, err := ExpandAttributes(db, "Publications.title")
	if err != nil {
		t.Fatal(err)
	}
	// Every original tuple is mapped, onto a tuple with identical values.
	if len(idMap) != db.NumTuples() {
		t.Fatalf("idMap covers %d tuples, want %d", len(idMap), db.NumTuples())
	}
	for old, nu := range idMap {
		ot, nt := db.Tuple(old), ex.Tuple(nu)
		if ot.Rel.Name != nt.Rel.Name || len(ot.Vals) != len(nt.Vals) {
			t.Fatalf("idMap %d->%d maps across relations", old, nu)
		}
		for i := range ot.Vals {
			if ot.Vals[i] != nt.Vals[i] {
				t.Fatalf("idMap %d->%d changed values", old, nu)
			}
		}
	}
	// Virtual relations exist for year, location, publisher but not title.
	if ex.Relation(ValueRelationName("Proceedings", "year")) == nil {
		t.Error("year values relation missing")
	}
	if ex.Relation(ValueRelationName("Conferences", "publisher")) == nil {
		t.Error("publisher values relation missing")
	}
	if ex.Relation(ValueRelationName("Publications", "title")) != nil {
		t.Error("title was expanded despite skip")
	}
	// Distinct years 1997, 2002 -> 2 tuples.
	if got := ex.Relation(ValueRelationName("Proceedings", "year")).Size(); got != 2 {
		t.Errorf("year values = %d, want 2", got)
	}
	// The year attribute is now an FK.
	rs := ex.Schema.Relation("Proceedings")
	if a := rs.Attrs[rs.AttrIndex("year")]; a.FK != ValueRelationName("Proceedings", "year") {
		t.Errorf("year FK = %q", a.FK)
	}
	// Traversal through the virtual relation works: both proceedings in 1997.
	proc := ex.LookupKey("Proceedings", "vldb97")
	st := Step{Rel: "Proceedings", Attr: "year", Forward: true}
	vals := ex.Joinable(proc, st, InvalidTuple, nil)
	if len(vals) != 1 || ex.Tuple(vals[0]).Val("value") != "1997" {
		t.Fatalf("year join gave %v", vals)
	}
	back := ex.Joinable(vals[0], st.Inverse(), InvalidTuple, nil)
	if len(back) != 1 {
		t.Errorf("1997 referenced by %d proceedings, want 1", len(back))
	}
	// Original relations copied wholesale.
	if ex.Relation("Publish").Size() != db.Relation("Publish").Size() {
		t.Error("Publish size changed by expansion")
	}
	// Original database untouched.
	if db.Schema.Relation("Proceedings").Attrs[db.Schema.Relation("Proceedings").AttrIndex("year")].FK != "" {
		t.Error("original schema mutated")
	}
}

// TestExpandAttributesUnknownSkip: a skip entry that names no attribute
// is an error naming it; an entry naming a key or foreign key is accepted.
func TestExpandAttributesUnknownSkip(t *testing.T) {
	db := miniDBLP(t)
	for _, bad := range []string{"Publications.titel", "Publication.title", "title", ""} {
		_, _, err := ExpandAttributes(db, "Proceedings.year", bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("skip %q: err = %v", bad, err)
		}
	}
	if _, _, err := ExpandAttributes(db, "Publications.paper-key", "Publish.author"); err != nil {
		t.Errorf("skipping a key and a foreign key: %v", err)
	}
}

func TestExpandAttributesSharedValues(t *testing.T) {
	// Two proceedings in the same year must share one value tuple.
	db := NewDatabase(dblpSchema(t))
	db.MustInsert("Conferences", "VLDB", "VLDB-End.")
	db.MustInsert("Proceedings", "vldb01", "VLDB", "2001", "Rome")
	db.MustInsert("Proceedings", "vldb01b", "VLDB", "2001", "Rome")
	ex, _, err := ExpandAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	years := ex.Relation(ValueRelationName("Proceedings", "year"))
	if years.Size() != 1 {
		t.Fatalf("year values = %d, want 1", years.Size())
	}
	yid := ex.LookupKey(ValueRelationName("Proceedings", "year"), "2001")
	st := Step{Rel: "Proceedings", Attr: "year", Forward: false}
	got := ex.Joinable(yid, st, InvalidTuple, nil)
	if len(got) != 2 {
		t.Errorf("2001 links %d proceedings, want 2", len(got))
	}
}

func TestStepFromTo(t *testing.T) {
	s := dblpSchema(t)
	st := Step{Rel: "Publish", Attr: "author", Forward: true}
	if st.From(s) != "Publish" || st.To(s) != "Authors" {
		t.Errorf("forward step endpoints: %s -> %s", st.From(s), st.To(s))
	}
	inv := st.Inverse()
	if inv.From(s) != "Authors" || inv.To(s) != "Publish" {
		t.Errorf("inverse step endpoints: %s -> %s", inv.From(s), inv.To(s))
	}
	missing := Step{Rel: "Nope", Attr: "x", Forward: true}
	if missing.To(s) != "" {
		t.Error("unknown relation step resolved")
	}
	missing = Step{Rel: "Publish", Attr: "nope", Forward: true}
	if missing.To(s) != "" {
		t.Error("unknown attribute step resolved")
	}
}

func TestStats(t *testing.T) {
	db := miniDBLP(t)
	s := db.Stats()
	if !strings.Contains(s, "Publish: 5 tuples") || !strings.Contains(s, "Authors: 3 tuples") {
		t.Errorf("Stats = %q", s)
	}
}

// TestDatabaseVersion: the mutation counter starts at zero and bumps on
// every insert — it is the invalidation key of the serve result cache, its
// only reader (through serve.EngineBackend.Version).
func TestDatabaseVersion(t *testing.T) {
	db := NewDatabase(dblpSchema(t))
	if got := db.Version(); got != 0 {
		t.Fatalf("fresh Version = %d, want 0", got)
	}
	db.MustInsert("Authors", "wei-wang")
	if got := db.Version(); got != 1 {
		t.Fatalf("Version after one insert = %d, want 1", got)
	}
	before := db.Version()
	db.MustInsert("Authors", "jiong-yang")
	db.MustInsert("Conferences", "VLDB", "VLDB-End.")
	if got := db.Version(); got != before+2 {
		t.Fatalf("Version after two more inserts = %d, want %d", got, before+2)
	}
	if _, err := db.Insert("Authors", "too", "many", "values"); err == nil {
		t.Fatal("arity-mismatched insert accepted")
	} else if got := db.Version(); got != before+2 {
		t.Fatalf("failed insert bumped Version to %d, want %d", got, before+2)
	}
}
