package reldb

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Value is an attribute value. All values are stored as strings; numeric
// attributes (e.g. publication years) are kept in their textual form, which
// is sufficient because DISTINCT only ever compares values for equality.
type Value = string

// TupleID identifies a tuple globally within one Database.
type TupleID int32

// InvalidTuple is returned by lookups that find nothing.
const InvalidTuple TupleID = -1

// Tuple is one row of a relation. Vals is ordered per the relation schema.
type Tuple struct {
	Rel  *RelationSchema
	Vals []Value
}

// Val returns the value of the named attribute, or "" if absent.
func (t *Tuple) Val(attr string) Value {
	if i := t.Rel.AttrIndex(attr); i >= 0 {
		return t.Vals[i]
	}
	return ""
}

// Relation stores the tuples of one relation plus its hash indexes.
type Relation struct {
	Schema *RelationSchema

	tupleIDs []TupleID
	byKey    map[Value]TupleID           // primary-key value -> tuple
	fkIndex  map[int]map[Value][]TupleID // attr index -> value -> referencing tuples
}

// Size returns the number of tuples in the relation.
func (r *Relation) Size() int { return len(r.tupleIDs) }

// TupleIDs returns the relation's tuples in insertion order. The returned
// slice is owned by the relation and must not be modified.
func (r *Relation) TupleIDs() []TupleID { return r.tupleIDs }

// Database is an in-memory relational database instance.
type Database struct {
	Schema *Schema

	tuples    []Tuple
	relations map[string]*Relation

	// version counts mutations. Its only reader is the serve result cache
	// (through serve.EngineBackend.Version), which keys entries on it.
	version atomic.Int64
}

// Version returns the database's mutation counter: zero for a fresh
// database, incremented by every Insert and Bump. The serve result cache,
// through serve.EngineBackend.Version, is its only reader: it stores the
// version each result was computed at and treats a mismatch as stale.
func (db *Database) Version() int64 { return db.version.Load() }

// NewDatabase creates an empty database over the given schema.
func NewDatabase(schema *Schema) *Database {
	db := &Database{Schema: schema, relations: make(map[string]*Relation)}
	for _, rs := range schema.Relations() {
		rel := &Relation{Schema: rs, byKey: make(map[Value]TupleID)}
		rel.fkIndex = make(map[int]map[Value][]TupleID)
		for _, fi := range rs.ForeignKeys() {
			rel.fkIndex[fi] = make(map[Value][]TupleID)
		}
		db.relations[rs.Name] = rel
	}
	return db
}

// Relation returns the named relation instance, or nil.
func (db *Database) Relation(name string) *Relation { return db.relations[name] }

// NumTuples returns the total number of tuples across all relations.
func (db *Database) NumTuples() int { return len(db.tuples) }

// Tuple returns the tuple with the given ID. The returned pointer stays
// valid until the next Insert (tuples are stored in a growing slice).
func (db *Database) Tuple(id TupleID) *Tuple { return &db.tuples[id] }

// Insert adds a tuple to the named relation and maintains all indexes.
// Values must be ordered per the relation schema. Inserting a duplicate
// primary-key value is an error.
func (db *Database) Insert(relation string, vals ...Value) (TupleID, error) {
	rel := db.relations[relation]
	if rel == nil {
		return InvalidTuple, fmt.Errorf("reldb: unknown relation %q", relation)
	}
	rs := rel.Schema
	if len(vals) != len(rs.Attrs) {
		return InvalidTuple, fmt.Errorf("reldb: relation %q expects %d values, got %d", relation, len(rs.Attrs), len(vals))
	}
	if ki := rs.KeyIndex(); ki >= 0 {
		if _, dup := rel.byKey[vals[ki]]; dup {
			return InvalidTuple, fmt.Errorf("reldb: relation %q: duplicate key %q", relation, vals[ki])
		}
	}
	id := TupleID(len(db.tuples))
	copied := make([]Value, len(vals))
	copy(copied, vals)
	db.tuples = append(db.tuples, Tuple{Rel: rs, Vals: copied})
	rel.tupleIDs = append(rel.tupleIDs, id)
	if ki := rs.KeyIndex(); ki >= 0 {
		rel.byKey[vals[ki]] = id
	}
	for fi, idx := range rel.fkIndex {
		idx[vals[fi]] = append(idx[vals[fi]], id)
	}
	db.version.Add(1)
	return id, nil
}

// Bump records a synthetic mutation: the version is bumped without any
// data change. Overload drills use it to exercise the version-keyed serve
// result cache (stale-while-revalidate) at a controlled cadence without
// crafting schema-correct tuples. Returns the new version.
func (db *Database) Bump() int64 {
	return db.version.Add(1)
}

// MustInsert is Insert that panics on error; for use by generators and tests
// whose schemas are statically correct.
func (db *Database) MustInsert(relation string, vals ...Value) TupleID {
	id, err := db.Insert(relation, vals...)
	if err != nil {
		panic(err)
	}
	return id
}

// LookupKey returns the tuple of the named relation whose primary key equals
// key, or InvalidTuple.
func (db *Database) LookupKey(relation string, key Value) TupleID {
	rel := db.relations[relation]
	if rel == nil {
		return InvalidTuple
	}
	if id, ok := rel.byKey[key]; ok {
		return id
	}
	return InvalidTuple
}

// Referencing returns the tuples of relation `from` whose foreign-key
// attribute `attr` holds the given value. The returned slice is owned by the
// index and must not be modified.
func (db *Database) Referencing(from, attr string, value Value) []TupleID {
	rel := db.relations[from]
	if rel == nil {
		return nil
	}
	ai := rel.Schema.AttrIndex(attr)
	if ai < 0 {
		return nil
	}
	idx := rel.fkIndex[ai]
	if idx == nil {
		return nil
	}
	return idx[value]
}

// Joinable returns the tuples joinable with tuple id across one join-path
// step. For a forward step the result is the single referenced tuple; for a
// reverse step it is every tuple referencing id's primary key.
//
// exclude, if valid, is removed from the result; propagation uses it to
// forbid an immediate step back to the tuple it just came from.
// The result is appended to buf, which may be nil.
func (db *Database) Joinable(id TupleID, step Step, exclude TupleID, buf []TupleID) []TupleID {
	t := &db.tuples[id]
	if step.Forward {
		// t must belong to step.Rel; follow its FK to the target relation.
		ai := t.Rel.AttrIndex(step.Attr)
		if ai < 0 || t.Rel.Name != step.Rel {
			return buf
		}
		target := db.LookupKey(t.Rel.Attrs[ai].FK, t.Vals[ai])
		if target != InvalidTuple && target != exclude {
			buf = append(buf, target)
		}
		return buf
	}
	// Reverse: t is in the referenced relation; find referencing tuples.
	ki := t.Rel.KeyIndex()
	if ki < 0 || step.target(db.Schema) != t.Rel.Name {
		return buf
	}
	for _, rid := range db.Referencing(step.Rel, step.Attr, t.Vals[ki]) {
		if rid != exclude {
			buf = append(buf, rid)
		}
	}
	return buf
}

// JoinFanout returns the number of tuples joinable with id across step, with
// no exclusion. It is the denominator of backward probability propagation.
func (db *Database) JoinFanout(id TupleID, step Step) int {
	t := &db.tuples[id]
	if step.Forward {
		ai := t.Rel.AttrIndex(step.Attr)
		if ai < 0 || t.Rel.Name != step.Rel {
			return 0
		}
		if db.LookupKey(t.Rel.Attrs[ai].FK, t.Vals[ai]) == InvalidTuple {
			return 0
		}
		return 1
	}
	ki := t.Rel.KeyIndex()
	if ki < 0 || step.target(db.Schema) != t.Rel.Name {
		return 0
	}
	return len(db.Referencing(step.Rel, step.Attr, t.Vals[ki]))
}

// Stats summarises the database contents, relation by relation.
func (db *Database) Stats() string {
	names := make([]string, 0, len(db.relations))
	for n := range db.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s: %d tuples\n", n, db.relations[n].Size())
	}
	return s
}
