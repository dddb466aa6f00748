package prop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"distinct/internal/reldb"
)

// randomSchemaWorld generates a random but valid relational world: a DAG
// of relations where each relation may reference earlier ones, with random
// plain attributes and random tuples. It exercises the substrate the way
// arbitrary user schemas would.
func randomSchemaWorld(rng *rand.Rand) *reldb.Database {
	nRels := 3 + rng.Intn(4)
	var schemas []*reldb.RelationSchema
	type fkSpec struct{ rel, attr string }
	var fks []fkSpec
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("R%d", i)
		attrs := []reldb.Attribute{{Name: "k", Key: true}}
		for a := 0; a < rng.Intn(3); a++ {
			attrs = append(attrs, reldb.Attribute{Name: fmt.Sprintf("v%d", a)})
		}
		if i > 0 {
			for f := 0; f < 1+rng.Intn(2); f++ {
				target := fmt.Sprintf("R%d", rng.Intn(i))
				attr := fmt.Sprintf("f%d", f)
				attrs = append(attrs, reldb.Attribute{Name: attr, FK: target})
				fks = append(fks, fkSpec{rel: name, attr: attr})
			}
		}
		schemas = append(schemas, reldb.MustRelationSchema(name, attrs...))
	}
	db := reldb.NewDatabase(reldb.MustSchema(schemas...))

	// Populate bottom-up so FK targets exist.
	keys := make(map[string][]string)
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("R%d", i)
		rs := db.Schema.Relation(name)
		n := 2 + rng.Intn(8)
		for t := 0; t < n; t++ {
			vals := make([]reldb.Value, len(rs.Attrs))
			for ai, a := range rs.Attrs {
				switch {
				case a.Key:
					vals[ai] = fmt.Sprintf("%s-%d", name, t)
				case a.FK != "":
					targets := keys[a.FK]
					vals[ai] = targets[rng.Intn(len(targets))]
				default:
					vals[ai] = fmt.Sprintf("val%d", rng.Intn(4))
				}
			}
			db.MustInsert(name, vals...)
			keys[name] = append(keys[name], fmt.Sprintf("%s-%d", name, t))
		}
	}
	return db
}

// TestRandomSchemasEndToEnd checks the substrate invariants on random
// schemas: path enumeration validity, expansion integrity, probability
// conservation, and trie/single propagation equivalence on the oracle.
func TestRandomSchemasEndToEnd(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomSchemaWorld(rng)

		// Expansion: every plain attribute becomes a value relation, all
		// FKs resolve, idMap is complete.
		ex, idMap, err := reldb.ExpandAttributes(db)
		if err != nil {
			t.Fatalf("seed %d: expansion: %v", seed, err)
		}
		if len(idMap) != db.NumTuples() {
			t.Fatalf("seed %d: idMap incomplete", seed)
		}
		for _, rs := range ex.Schema.Relations() {
			rel := ex.Relation(rs.Name)
			for _, fi := range rs.ForeignKeys() {
				for _, id := range rel.TupleIDs() {
					if ex.LookupKey(rs.Attrs[fi].FK, ex.Tuple(id).Vals[fi]) == reldb.InvalidTuple {
						t.Fatalf("seed %d: dangling FK in expanded db", seed)
					}
				}
			}
		}

		// Pick a start relation that owns at least one FK.
		var start string
		for _, rs := range ex.Schema.Relations() {
			if len(rs.ForeignKeys()) > 0 && ex.Relation(rs.Name).Size() > 0 {
				start = rs.Name
				break
			}
		}
		if start == "" {
			continue
		}
		paths := reldb.EnumerateJoinPaths(ex.Schema, start, reldb.EnumerateOptions{MaxLen: 3})
		for _, p := range paths {
			if err := p.Validate(ex.Schema); err != nil {
				t.Fatalf("seed %d: invalid path %s: %v", seed, p, err)
			}
		}
		if len(paths) == 0 {
			continue
		}

		trie := NewTrie(paths)
		ids := ex.Relation(start).TupleIDs()
		for _, id := range ids[:min(3, len(ids))] {
			multi := propagateOracle(ex, id, trie)
			for pi, p := range paths {
				single := propagateOracle(ex, id, NewTrie([]reldb.JoinPath{p}))[0]
				if !reflect.DeepEqual(single, multi[pi]) {
					t.Fatalf("seed %d: trie mismatch on %s", seed, p)
				}
				if tf := single.SumFwd; tf > 1+1e-9 {
					t.Fatalf("seed %d: forward mass %v > 1 on %s", seed, tf, p)
				}
				for _, fb := range single.FBs {
					if fb.Fwd <= 0 || fb.Bwd <= 0 || fb.Fwd > 1+1e-9 || fb.Bwd > 1+1e-9 {
						t.Fatalf("seed %d: out-of-range probability %+v", seed, fb)
					}
				}
			}
		}
	}
}
