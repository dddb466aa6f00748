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
	// Parallel block with duplicates in the input: both copies of a
	// reference hold its one stored result.
	block, err := parExt.NeighborhoodsCtx(context.Background(), append(append([]reldb.TupleID(nil), refs...), refs...), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		a, stored := views(seqExt.Neighborhoods(r)), parExt.Neighborhoods(r)
		if block[i] != stored || block[len(refs)+i] != stored {
			t.Fatalf("ref %d: the block does not hold the stored neighborhoods", r)
		}
		b := views(stored)
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

// stored counts the references with a published result.
func stored(e *Extractor) int {
	n := 0
	for i := range e.nbs {
		if e.nbs[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestPrefetchIdempotentAndEmpty(t *testing.T) {
	ext, refs := extractorFixture(t)
	ctx := context.Background()
	first, err := ext.NeighborhoodsCtx(ctx, refs, 0) // 0 workers = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	again, err := ext.NeighborhoodsCtx(ctx, refs, 2) // everything stored: no-op
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if again[i] != first[i] {
			t.Errorf("second block recomputed ref %d", refs[i])
		}
	}
	if empty, err := ext.NeighborhoodsCtx(ctx, nil, 3); err != nil || len(empty) != 0 {
		t.Errorf("empty block = %d entries, %v", len(empty), err)
	}
	if n := stored(ext); n != len(refs) {
		t.Errorf("%d references stored, want %d", n, len(refs))
	}
}

func TestPrefetchSingleWorker(t *testing.T) {
	ext, refs := extractorFixture(t)
	ext.Prefetch(refs, 1)
	if n := stored(ext); n != len(refs) {
		t.Fatalf("%d references stored, want %d", n, len(refs))
	}
}

// TestPrefetchAllWorkersFail is the regression test for a prefetch hang:
// when every worker stopped at its first error, the old channel-fed pool's
// feeder blocked forever on the next send. A scratch pool that panics on
// every Get makes every propagation panic, and every tuple of the fixture
// gives the two workers seven key groups to fail on; the call must return
// the recovered panic (and store nothing) well before the deadline.
func TestPrefetchAllWorkersFail(t *testing.T) {
	ext, _ := extractorFixture(t)
	ext.scratch.New = func() any { panic("no scratch") }
	refs := make([]reldb.TupleID, ext.plan.NumTuples())
	for i := range refs {
		refs[i] = reldb.TupleID(i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ext.NeighborhoodsCtx(context.Background(), refs, 2)
		done <- err
	}()
	select {
	case err := <-done:
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a recovered *fault.PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NeighborhoodsCtx hung after every worker failed")
	}
	if n := stored(ext); n != 0 {
		t.Fatalf("failed prefetch stored %d references", n)
	}
	// The non-ctx Prefetch re-raises the panic instead of swallowing it.
	defer func() {
		if recover() == nil {
			t.Fatal("Prefetch swallowed a worker panic")
		}
	}()
	ext.Prefetch(refs, 2)
}
