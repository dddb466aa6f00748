package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"distinct/internal/fault"
	"distinct/internal/reldb"
)

func TestPrefetchMatchesSequential(t *testing.T) {
	seqExt, refs := extractorFixture(t)
	parExt, _ := extractorFixture(t)

	// Sequential baseline.
	for _, r := range refs {
		seqExt.Neighborhoods(r)
	}
	// Parallel prefetch with duplicates in the input.
	parExt.Prefetch(append(append([]reldb.TupleID(nil), refs...), refs...), 4)
	if parExt.CacheSize() != len(refs) {
		t.Fatalf("cache size %d, want %d", parExt.CacheSize(), len(refs))
	}
	for _, r := range refs {
		a, b := seqExt.Neighborhoods(r), parExt.Neighborhoods(r)
		if len(a) != len(b) {
			t.Fatalf("ref %d: %d vs %d paths", r, len(a), len(b))
		}
		for p := range a {
			if !reflect.DeepEqual(a[p].Keys, b[p].Keys) {
				t.Fatalf("ref %d path %d: neighbor tuples differ", r, p)
			}
			for i, fb := range a[p].FBs {
				if pb := b[p].FBs[i]; math.Abs(pb.Fwd-fb.Fwd) > 1e-15 || math.Abs(pb.Bwd-fb.Bwd) > 1e-15 {
					t.Fatalf("ref %d path %d tuple %d: %+v vs %+v", r, p, a[p].Keys[i], fb, pb)
				}
			}
		}
	}
}

func TestPrefetchIdempotentAndEmpty(t *testing.T) {
	ext, refs := extractorFixture(t)
	ext.Prefetch(refs, 0) // 0 workers = GOMAXPROCS
	size := ext.CacheSize()
	ext.Prefetch(refs, 2) // everything cached: no-op
	if ext.CacheSize() != size {
		t.Error("second prefetch changed the cache")
	}
	ext.Prefetch(nil, 3) // empty input: no-op
	if ext.CacheSize() != size {
		t.Error("empty prefetch changed the cache")
	}
}

func TestPrefetchSingleWorker(t *testing.T) {
	ext, refs := extractorFixture(t)
	ext.Prefetch(refs, 1)
	if ext.CacheSize() != len(refs) {
		t.Fatalf("cache size %d", ext.CacheSize())
	}
}

// TestPrefetchAllWorkersFail is the regression test for a prefetch hang:
// when every worker stopped at its first error, the old channel-fed pool's
// feeder blocked forever on the next send. A scratch pool that panics on
// every Get makes every propagation panic, and every tuple of the fixture
// gives the two workers seven key groups to fail on; the call must return
// the recovered panic (and cache nothing) well before the deadline.
func TestPrefetchAllWorkersFail(t *testing.T) {
	ext, _ := extractorFixture(t)
	ext.scratch.New = func() any { panic("no scratch") }
	refs := make([]reldb.TupleID, ext.plan.NumTuples())
	for i := range refs {
		refs[i] = reldb.TupleID(i)
	}
	done := make(chan error, 1)
	go func() { done <- ext.PrefetchCtx(context.Background(), refs, 2) }()
	select {
	case err := <-done:
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a recovered *fault.PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PrefetchCtx hung after every worker failed")
	}
	if ext.CacheSize() != 0 {
		t.Fatalf("failed prefetch cached %d references", ext.CacheSize())
	}
	// The non-ctx Prefetch re-raises the panic instead of swallowing it.
	defer func() {
		if recover() == nil {
			t.Fatal("Prefetch swallowed a worker panic")
		}
	}()
	ext.Prefetch(refs, 2)
}
