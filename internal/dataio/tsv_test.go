package dataio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distinct/internal/dblp"
	"distinct/internal/music"
	"distinct/internal/reldb"
)

const schemaDoc = `[
  {"name": "Authors", "attrs": [{"name": "author", "key": true}]},
  {"name": "Publish", "attrs": [
    {"name": "author", "fk": "Authors"},
    {"name": "paper", "fk": "Papers"}]},
  {"name": "Papers", "attrs": [
    {"name": "paper", "key": true},
    {"name": "year"}]}
]`

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema(strings.NewReader(schemaDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Relation("Publish") == nil || s.Relation("Papers").KeyIndex() != 0 {
		t.Error("schema not parsed correctly")
	}
	pub := s.Relation("Publish")
	if pub.Attrs[0].FK != "Authors" || pub.Attrs[1].FK != "Papers" {
		t.Error("foreign keys lost")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []string{
		"not json",
		"[]",
		`[{"name": "", "attrs": [{"name": "x"}]}]`,
		`[{"name": "R", "attrs": [{"name": "x", "fk": "Missing"}]}]`,
	}
	for _, c := range cases {
		if _, err := ParseSchema(strings.NewReader(c)); err == nil {
			t.Errorf("schema %q accepted", c)
		}
	}
}

func TestLoadTSVRoundTrip(t *testing.T) {
	s, err := ParseSchema(strings.NewReader(schemaDoc))
	if err != nil {
		t.Fatal(err)
	}
	db := reldb.NewDatabase(s)
	if n, err := LoadTSV(db, "Authors", strings.NewReader("author\nalice\nbob\n")); err != nil || n != 2 {
		t.Fatalf("authors: n=%d err=%v", n, err)
	}
	// Columns out of schema order.
	if n, err := LoadTSV(db, "Papers", strings.NewReader("year\tpaper\n1999\tp1\n2004\tp2\n")); err != nil || n != 2 {
		t.Fatalf("papers: n=%d err=%v", n, err)
	}
	if n, err := LoadTSV(db, "Publish", strings.NewReader("author\tpaper\nalice\tp1\nbob\tp1\nalice\tp2\n")); err != nil || n != 3 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	// The out-of-order columns landed correctly.
	p1 := db.LookupKey("Papers", "p1")
	if db.Tuple(p1).Val("year") != "1999" {
		t.Errorf("p1 year = %q", db.Tuple(p1).Val("year"))
	}
	if len(db.Referencing("Publish", "author", "alice")) != 2 {
		t.Error("alice references wrong")
	}

	// SaveTSV inverts LoadTSV.
	var buf bytes.Buffer
	if err := SaveTSV(db, "Papers", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := reldb.NewDatabase(s)
	if n, err := LoadTSV(db2, "Papers", &buf); err != nil || n != 2 {
		t.Fatalf("reload: n=%d err=%v", n, err)
	}
	p1b := db2.LookupKey("Papers", "p1")
	if db2.Tuple(p1b).Val("year") != "1999" {
		t.Error("round trip lost values")
	}
}

func TestLoadTSVErrors(t *testing.T) {
	s, _ := ParseSchema(strings.NewReader(schemaDoc))
	db := reldb.NewDatabase(s)
	if _, err := LoadTSV(db, "Nope", strings.NewReader("x\n")); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := LoadTSV(db, "Papers", strings.NewReader("")); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := LoadTSV(db, "Papers", strings.NewReader("paper\tbogus\np1\tx\n")); err == nil {
		t.Error("unknown header column accepted")
	}
	if _, err := LoadTSV(db, "Papers", strings.NewReader("paper\tpaper\np1\tp1\n")); err == nil {
		t.Error("duplicate header column accepted")
	}
	if _, err := LoadTSV(db, "Papers", strings.NewReader("paper\np1\n")); err == nil {
		t.Error("short header accepted")
	}
	// Duplicate key row fails mid-load with the row number in the error.
	_, err := LoadTSV(db, "Papers", strings.NewReader("paper\tyear\np1\t1999\np1\t2000\n"))
	if err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("duplicate key error = %v", err)
	}
	if err := SaveTSV(db, "Nope", &bytes.Buffer{}); err == nil {
		t.Error("SaveTSV accepted unknown relation")
	}
}

func TestLoadTSVDrivesEngineSchema(t *testing.T) {
	// End to end: schema + TSV -> attribute expansion works.
	s, _ := ParseSchema(strings.NewReader(schemaDoc))
	db := reldb.NewDatabase(s)
	if _, err := LoadTSV(db, "Authors", strings.NewReader("author\na\nb\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTSV(db, "Papers", strings.NewReader("paper\tyear\np1\t2000\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTSV(db, "Publish", strings.NewReader("author\tpaper\na\tp1\nb\tp1\n")); err != nil {
		t.Fatal(err)
	}
	ex, _, err := reldb.ExpandAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Relation(reldb.ValueRelationName("Papers", "year")) == nil {
		t.Error("expansion failed on TSV-loaded data")
	}
}

// TestSaveSchemaRoundTrip: ParseSchema inverts SaveSchema on the DBLP and
// music schemas, keys and foreign keys included.
func TestSaveSchemaRoundTrip(t *testing.T) {
	for name, s := range map[string]*reldb.Schema{"dblp": dblp.Schema(), "music": music.Schema()} {
		var buf bytes.Buffer
		if err := SaveSchema(s, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseSchema(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(schemaJSON(got), schemaJSON(s)) {
			t.Errorf("%s: round trip gave %v, want %v", name, schemaJSON(got), schemaJSON(s))
		}
	}
}

// TestExportRoundTrip: LoadExport reads back what SaveExport wrote, every
// relation's tuples in order.
func TestExportRoundTrip(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	if err := SaveExport(w.DB, dir); err != nil {
		t.Fatal(err)
	}
	db, err := LoadExport(filepath.Join(dir, "schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range w.DB.Schema.Relations() {
		var want, got bytes.Buffer
		if err := SaveTSV(w.DB, rs.Name, &want); err != nil {
			t.Fatal(err)
		}
		if err := SaveTSV(db, rs.Name, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s differs after the round trip", rs.Name)
		}
	}
	if err := os.Remove(filepath.Join(dir, "Cites.tsv")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadExport(filepath.Join(dir, "schema.json")); err == nil || !strings.Contains(err.Error(), "Cites") {
		t.Errorf("export without Cites.tsv: err = %v", err)
	}
}
