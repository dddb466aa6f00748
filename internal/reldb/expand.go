package reldb

import (
	"fmt"
	"sort"
)

// ValueRelationSuffix names the virtual relations created by
// ExpandAttributes: relation R's attribute a expands into "R.a#values".
const ValueRelationSuffix = "#values"

// ValueRelationName returns the name of the virtual relation holding the
// distinct values of rel.attr after expansion.
func ValueRelationName(rel, attr string) string {
	return rel + "." + attr + ValueRelationSuffix
}

// ExpandAttributes implements Section 2.1 of the DISTINCT paper: every
// distinct value of every non-key, non-foreign-key attribute is turned into
// a tuple of a virtual single-column relation, and the original attribute
// becomes a foreign key into it. Neighbor tuples and attribute values are
// then handled by one uniform join-path mechanism (two proceedings sharing
// publisher "ACM" become linked through the shared "ACM" tuple).
//
// skip lists attributes to leave untouched, as "Relation.attr" strings;
// DISTINCT skips free-text attributes such as paper titles, whose values are
// near-unique and would only add noise. An entry that names no attribute
// of the schema is an error, so a misspelt one cannot expand the attribute
// it meant to keep. The input database is not modified;
// a new database over the widened schema is returned, together with a map
// from every original tuple ID to its ID in the new database (tuple IDs
// shift because the virtual value tuples are inserted first).
func ExpandAttributes(db *Database, skip ...string) (*Database, map[TupleID]TupleID, error) {
	skipSet := make(map[string]bool, len(skip))
	unknown := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s], unknown[s] = true, true
	}

	type expansion struct {
		rel      string
		attrIdx  int
		attrName string
	}
	var expansions []expansion
	var newRels []*RelationSchema
	for _, rs := range db.Schema.Relations() {
		attrs := make([]Attribute, len(rs.Attrs))
		copy(attrs, rs.Attrs)
		for i, a := range rs.Attrs {
			delete(unknown, rs.Name+"."+a.Name)
			if a.Key || a.FK != "" || skipSet[rs.Name+"."+a.Name] {
				continue
			}
			vrel := ValueRelationName(rs.Name, a.Name)
			attrs[i] = Attribute{Name: a.Name, FK: vrel}
			expansions = append(expansions, expansion{rel: rs.Name, attrIdx: i, attrName: a.Name})
			vs, err := NewRelationSchema(vrel, Attribute{Name: "value", Key: true})
			if err != nil {
				return nil, nil, err
			}
			newRels = append(newRels, vs)
		}
		ns, err := NewRelationSchema(rs.Name, attrs...)
		if err != nil {
			return nil, nil, err
		}
		newRels = append(newRels, ns)
	}
	for _, s := range skip {
		if unknown[s] {
			return nil, nil, fmt.Errorf("reldb: skip entry %q names no attribute (want Relation.attr)", s)
		}
	}
	schema, err := NewSchema(newRels...)
	if err != nil {
		return nil, nil, err
	}
	out := NewDatabase(schema)

	// Collect distinct values per expanded attribute and insert value tuples
	// first (they are referenced by the rewritten originals). Sorting keeps
	// output deterministic.
	for _, ex := range expansions {
		rel := db.Relation(ex.rel)
		seen := make(map[Value]bool)
		for _, id := range rel.TupleIDs() {
			seen[db.Tuple(id).Vals[ex.attrIdx]] = true
		}
		values := make([]Value, 0, len(seen))
		for v := range seen {
			values = append(values, v)
		}
		sort.Strings(values)
		vrel := ValueRelationName(ex.rel, ex.attrName)
		for _, v := range values {
			if _, err := out.Insert(vrel, v); err != nil {
				return nil, nil, fmt.Errorf("reldb: expanding %s.%s: %w", ex.rel, ex.attrName, err)
			}
		}
	}

	// Copy every original tuple; values are unchanged (the expanded attribute
	// now interprets its value as a key into the virtual relation).
	idMap := make(map[TupleID]TupleID, db.NumTuples())
	for _, rs := range db.Schema.Relations() {
		rel := db.Relation(rs.Name)
		for _, id := range rel.TupleIDs() {
			nid, err := out.Insert(rs.Name, db.Tuple(id).Vals...)
			if err != nil {
				return nil, nil, err
			}
			idMap[id] = nid
		}
	}
	return out, idMap, nil
}
