// Package dataio serializes generated bibliographic worlds — the relational
// database plus its ground truth — as a single JSON document, so a dataset
// generated once (cmd/dblpgen) can be re-analyzed (cmd/distinct) or shared
// without regenerating it.
package dataio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"distinct/internal/dblp"
	"distinct/internal/reldb"
)

// fileFormat is bumped on incompatible layout changes.
const fileFormat = 1

type attrJSON struct {
	Name string `json:"name"`
	Key  bool   `json:"key,omitempty"`
	FK   string `json:"fk,omitempty"`
}

type relationJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

type identityJSON struct {
	ID          dblp.AuthorID `json:"id"`
	Name        string        `json:"name"`
	First       string        `json:"first"`
	Last        string        `json:"last"`
	Affiliation string        `json:"affiliation"`
	Community   int           `json:"community"`
	Ambiguous   bool          `json:"ambiguous,omitempty"`
}

type worldJSON struct {
	Format int            `json:"format"`
	Config dblp.Config    `json:"config"`
	Schema []relationJSON `json:"schema"`
	// Tuples holds, per relation name, the tuple values in insertion order.
	Tuples map[string][][]string `json:"tuples"`
	// Identities is the ground-truth author list.
	Identities []identityJSON `json:"identities"`
	// RefAuthor maps each tuple of the reference relation (by its position
	// in insertion order) to the true author identity.
	RefAuthor []dblp.AuthorID `json:"refAuthor"`
}

// SaveWorld writes the world to w as JSON.
func SaveWorld(world *dblp.World, w io.Writer) error {
	doc := worldJSON{
		Format: fileFormat,
		Config: world.Config,
		Tuples: make(map[string][][]string),
	}
	doc.Schema = schemaJSON(world.DB.Schema)
	for _, rs := range world.DB.Schema.Relations() {
		rel := world.DB.Relation(rs.Name)
		rows := make([][]string, 0, rel.Size())
		for _, id := range rel.TupleIDs() {
			rows = append(rows, world.DB.Tuple(id).Vals)
		}
		doc.Tuples[rs.Name] = rows
	}
	for _, ident := range world.Identities {
		doc.Identities = append(doc.Identities, identityJSON{
			ID: ident.ID, Name: ident.Name, First: ident.First, Last: ident.Last,
			Affiliation: ident.Affiliation, Community: ident.Community,
			Ambiguous: ident.Ambiguous,
		})
	}
	for _, id := range world.DB.Relation(dblp.ReferenceRelation).TupleIDs() {
		aid, ok := world.RefAuthor[id]
		if !ok {
			return fmt.Errorf("dataio: reference tuple %d has no ground truth", id)
		}
		doc.RefAuthor = append(doc.RefAuthor, aid)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// SaveWorldFile writes the world to a file path.
func SaveWorldFile(world *dblp.World, path string) error {
	return writeFile(path, func(w io.Writer) error { return SaveWorld(world, w) })
}

// LoadWorld reads a world written by SaveWorld.
func LoadWorld(r io.Reader) (*dblp.World, error) {
	var doc worldJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataio: decoding world: %w", err)
	}
	if doc.Format != fileFormat {
		return nil, fmt.Errorf("dataio: unsupported format %d (want %d)", doc.Format, fileFormat)
	}
	schema, err := schemaFromJSON(doc.Schema)
	if err != nil {
		return nil, fmt.Errorf("dataio: schema: %w", err)
	}
	db := reldb.NewDatabase(schema)
	refAuthor := make(map[reldb.TupleID]dblp.AuthorID)
	for _, rj := range doc.Schema {
		rows := doc.Tuples[rj.Name]
		for ri, row := range rows {
			id, err := db.Insert(rj.Name, row...)
			if err != nil {
				return nil, fmt.Errorf("dataio: inserting into %s: %w", rj.Name, err)
			}
			if rj.Name == dblp.ReferenceRelation {
				if ri >= len(doc.RefAuthor) {
					return nil, fmt.Errorf("dataio: ground truth shorter than reference relation")
				}
				refAuthor[id] = doc.RefAuthor[ri]
			}
		}
	}
	idents := make([]dblp.Identity, len(doc.Identities))
	for i, ij := range doc.Identities {
		if int(ij.ID) != i {
			return nil, fmt.Errorf("dataio: identity %d has id %d; ids must be dense", i, ij.ID)
		}
		idents[i] = dblp.Identity{
			ID: ij.ID, Name: ij.Name, First: ij.First, Last: ij.Last,
			Affiliation: ij.Affiliation, Community: ij.Community,
			Ambiguous: ij.Ambiguous,
		}
	}
	world, err := dblp.Assemble(doc.Config, db, idents, refAuthor)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	return world, nil
}

// LoadWorldFile reads a world from a file path.
func LoadWorldFile(path string) (*dblp.World, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWorld(f)
}
