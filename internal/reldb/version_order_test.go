// Regression tests for the Insert ordering contract behind the
// version-keyed serve result cache: plans are invalidated BEFORE the
// version bump, so any reader that observes the new version and then probes
// the plan cache can only get plans compiled from post-insert data. The window is only observable between two
// statements inside Insert, so the test uses the white-box
// testHookBeforeVersionBump seam (the TestingKnobs pattern) to stand exactly
// inside it.
package reldb

import (
	"fmt"
	"testing"
)

// TestInsertInvalidatesPlansBeforeVersionBump stands inside Insert, after
// the data write and whatever invalidation Insert has done, but before the
// version bump, and asserts the two halves of the contract:
//
//  1. the plan cache is already empty — with the pre-fix ordering (bump
//     first, invalidate second) the stale compiled hop would still be
//     cached here while the version is about to be (or already was)
//     published, and a version-keyed cache probing "at the new version"
//     could pull it;
//  2. a hop compiled at this point already reflects the inserted row, so
//     even a reader racing into the window only ever caches fresh data
//     under the old version — which the next probe at the new version
//     purges (versions are monotonic).
func TestInsertInvalidatesPlansBeforeVersionBump(t *testing.T) {
	db := miniDBLP(t)
	step := Step{Rel: "Publish", Attr: "author", Forward: true} // Publish -> Authors

	// Warm the plan cache so there is something to invalidate.
	warm := db.HopFor("Publish", step)
	if warm == nil || warm.NumFrom != db.Relation("Publish").Size() {
		t.Fatalf("warm plan: %+v", warm)
	}
	v0 := db.Version()

	hookRan := false
	db.testHookBeforeVersionBump = func() {
		hookRan = true
		// (1) Invalidation must already have happened at this point.
		db.planMu.Lock()
		stale := len(db.hopPlans)
		db.planMu.Unlock()
		if stale != 0 {
			t.Errorf("inside the pre-bump window the plan cache still holds %d entries; "+
				"a reader observing the new version could pull a stale plan", stale)
		}
		// The version must not have been published yet.
		if got := db.Version(); got != v0 {
			t.Errorf("version already bumped to %d inside the hook (want still %d)", got, v0)
		}
		// (2) Recompiling here sees the inserted row: the data write
		// happens-before the invalidation, so the window can only ever hand
		// out fresh plans under the old version — never the other way round.
		h := db.HopFor("Publish", step)
		if h.NumFrom != db.Relation("Publish").Size() {
			t.Errorf("hop compiled inside the window covers %d rows, want %d (post-insert)",
				h.NumFrom, db.Relation("Publish").Size())
		}
	}
	defer func() { db.testHookBeforeVersionBump = nil }()

	db.MustInsert("Publish", "haixun-wang", "p1")
	if !hookRan {
		t.Fatal("testHookBeforeVersionBump never ran")
	}
	if got := db.Version(); got != v0+1 {
		t.Fatalf("version after insert = %d, want %d", got, v0+1)
	}
	// After Insert returns, a reader at the new version recompiles fresh.
	h := db.HopFor("Publish", step)
	if h.NumFrom != db.Relation("Publish").Size() {
		t.Fatalf("post-insert hop covers %d rows, want %d", h.NumFrom, db.Relation("Publish").Size())
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
