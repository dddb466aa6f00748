package dataio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"distinct/internal/reldb"
)

// Generic data loading: a schema described in JSON plus one TSV file per
// relation lets users run DISTINCT on their own data without writing Go.
//
// The schema document is a JSON array of relations:
//
//	[
//	  {"name": "Authors", "attrs": [{"name": "author", "key": true}]},
//	  {"name": "Publish", "attrs": [
//	    {"name": "author", "fk": "Authors"},
//	    {"name": "paper",  "fk": "Publications"}]},
//	  ...
//	]
//
// Each relation's TSV file carries a header row naming the columns; columns
// may appear in any order but must cover every attribute exactly once.

// ParseSchema reads a JSON schema document.
func ParseSchema(r io.Reader) (*reldb.Schema, error) {
	var doc []relationJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataio: decoding schema: %w", err)
	}
	if len(doc) == 0 {
		return nil, fmt.Errorf("dataio: schema document has no relations")
	}
	schema, err := schemaFromJSON(doc)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	return schema, nil
}

// SaveSchema writes s as a schema document, the inverse of ParseSchema.
func SaveSchema(s *reldb.Schema, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(schemaJSON(s))
}

// schemaJSON is the document form of s, one entry per relation in order.
func schemaJSON(s *reldb.Schema) []relationJSON {
	var doc []relationJSON
	for _, rs := range s.Relations() {
		rj := relationJSON{Name: rs.Name}
		for _, a := range rs.Attrs {
			rj.Attrs = append(rj.Attrs, attrJSON{Name: a.Name, Key: a.Key, FK: a.FK})
		}
		doc = append(doc, rj)
	}
	return doc
}

// schemaFromJSON builds and validates the schema a document describes.
func schemaFromJSON(doc []relationJSON) (*reldb.Schema, error) {
	var rels []*reldb.RelationSchema
	for _, rj := range doc {
		attrs := make([]reldb.Attribute, len(rj.Attrs))
		for i, a := range rj.Attrs {
			attrs[i] = reldb.Attribute{Name: a.Name, Key: a.Key, FK: a.FK}
		}
		rs, err := reldb.NewRelationSchema(rj.Name, attrs...)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rs)
	}
	return reldb.NewSchema(rels...)
}

// SaveExport writes db into dir, creating it if needed, as a loadable
// export: the schema document schema.json and one <Relation>.tsv per
// relation.
func SaveExport(db *reldb.Database, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "schema.json"), func(w io.Writer) error {
		return SaveSchema(db.Schema, w)
	}); err != nil {
		return err
	}
	for _, rs := range db.Schema.Relations() {
		if err := writeFile(filepath.Join(dir, rs.Name+".tsv"), func(w io.Writer) error {
			return SaveTSV(db, rs.Name, w)
		}); err != nil {
			return err
		}
	}
	return nil
}

// LoadExport reads the schema document at path and loads every relation
// of it from <Relation>.tsv in the same directory: the inverse of
// SaveExport.
func LoadExport(path string) (*reldb.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	schema, err := ParseSchema(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	db := reldb.NewDatabase(schema)
	for _, rs := range schema.Relations() {
		f, err := os.Open(filepath.Join(filepath.Dir(path), rs.Name+".tsv"))
		if err != nil {
			return nil, fmt.Errorf("dataio: relation %s: %w", rs.Name, err)
		}
		_, err = LoadTSV(db, rs.Name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTSV inserts the tab-separated rows of r into the named relation and
// returns the number of tuples inserted. The first row is a header naming
// the columns; it must cover the relation's attributes exactly (any order).
func LoadTSV(db *reldb.Database, relation string, r io.Reader) (int, error) {
	rs := db.Schema.Relation(relation)
	if rs == nil {
		return 0, fmt.Errorf("dataio: unknown relation %q", relation)
	}
	cr := csv.NewReader(r)
	cr.Comma = '\t'
	cr.FieldsPerRecord = len(rs.Attrs)
	cr.LazyQuotes = true

	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("dataio: %s: reading header: %w", relation, err)
	}
	// Map file columns onto attribute positions.
	colOf := make([]int, len(rs.Attrs)) // attr index -> column index
	for i := range colOf {
		colOf[i] = -1
	}
	for col, name := range header {
		ai := rs.AttrIndex(name)
		if ai < 0 {
			return 0, fmt.Errorf("dataio: %s: header column %q is not an attribute", relation, name)
		}
		if colOf[ai] != -1 {
			return 0, fmt.Errorf("dataio: %s: duplicate header column %q", relation, name)
		}
		colOf[ai] = col
	}
	for ai, col := range colOf {
		if col == -1 {
			return 0, fmt.Errorf("dataio: %s: header misses attribute %q", relation, rs.Attrs[ai].Name)
		}
	}

	n := 0
	vals := make([]reldb.Value, len(rs.Attrs))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("dataio: %s: row %d: %w", relation, n+2, err)
		}
		for ai, col := range colOf {
			vals[ai] = rec[col]
		}
		if _, err := db.Insert(relation, vals...); err != nil {
			return n, fmt.Errorf("dataio: %s: row %d: %w", relation, n+2, err)
		}
		n++
	}
	return n, nil
}

// SaveTSV writes the relation as TSV with a header row, the inverse of
// LoadTSV (columns in schema order).
func SaveTSV(db *reldb.Database, relation string, w io.Writer) error {
	rs := db.Schema.Relation(relation)
	if rs == nil {
		return fmt.Errorf("dataio: unknown relation %q", relation)
	}
	cw := csv.NewWriter(w)
	cw.Comma = '\t'
	header := make([]string, len(rs.Attrs))
	for i, a := range rs.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, id := range db.Relation(relation).TupleIDs() {
		if err := cw.Write(db.Tuple(id).Vals); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
