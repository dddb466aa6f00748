package reldb

import (
	"fmt"
	"testing"
)

// TestBumpInvalidatesAndBumps pins Bump's contract: a synthetic mutation
// bumps the version by exactly one and moves no data — the knob overload
// drills use to exercise stale-while-revalidate.
func TestBumpInvalidatesAndBumps(t *testing.T) {
	db := miniDBLP(t)
	v0, n0 := db.Version(), db.NumTuples()
	if got := db.Bump(); got != v0+1 {
		t.Fatalf("Bump returned %d, want %d", got, v0+1)
	}
	if got := db.Version(); got != v0+1 {
		t.Fatalf("version after Bump = %d, want %d", got, v0+1)
	}
	if got := db.NumTuples(); got != n0 {
		t.Fatalf("Bump changed the tuple count: %d, want %d", got, n0)
	}
}

// TestVersionMonotonicPerInsert pins the property stale-entry purging relies
// on: every Insert bumps the version by exactly one, so an entry keyed at an
// older version can never be produced again.
func TestVersionMonotonicPerInsert(t *testing.T) {
	db := NewDatabase(dblpSchema(t))
	if db.Version() != 0 {
		t.Fatalf("fresh database version = %d, want 0", db.Version())
	}
	for i := 1; i <= 5; i++ {
		db.MustInsert("Authors", fmt.Sprintf("author-%d", i))
		if got := db.Version(); got != int64(i) {
			t.Fatalf("after %d inserts version = %d", i, got)
		}
	}
}
