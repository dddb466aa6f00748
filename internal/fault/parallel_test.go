package fault

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		out := make([]int, n)
		err := ParallelFor(context.Background(), n, workers, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
	}
	// n = 0 must not hang or panic, whatever the worker request.
	for _, workers := range []int{4, 0} {
		err := ParallelFor(context.Background(), 0, workers, func(int) error {
			t.Fatalf("body called for n=0, workers=%d", workers)
			return nil
		})
		if err != nil {
			t.Fatalf("n=0 workers=%d: %v", workers, err)
		}
	}
}

// TestParallelForMoreWorkersThanItems: requesting far more workers than
// items must clamp to n (no idle goroutine may re-run or skip an index),
// and every index still runs exactly once.
func TestParallelForMoreWorkersThanItems(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		var calls atomic.Int64
		perIndex := make([]atomic.Int32, n)
		err := ParallelFor(context.Background(), n, 64, func(i int) error {
			calls.Add(1)
			perIndex[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=64: %v", n, err)
		}
		if got := calls.Load(); got != int64(n) {
			t.Fatalf("n=%d workers=64: body ran %d times", n, got)
		}
		for i := range perIndex {
			if c := perIndex[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestParallelForCtxExactlyOnceUnderCancel: cancelling mid-iteration must
// never run an index twice — claimed items finish, unclaimed items are
// skipped, and the context error is returned. Index n/4 cancels, and every
// later index waits for the cancel before it returns, so a worker claims
// at most one index past n/4 and then sees the cancel: whatever the
// scheduling, indices 0..n/4 run, plus at most one more per other worker.
func TestParallelForCtxExactlyOnceUnderCancel(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 200
		ctx, cancel := context.WithCancel(context.Background())
		perIndex := make([]atomic.Int32, n)
		err := ParallelFor(ctx, n, workers, func(i int) error {
			if c := perIndex[i].Add(1); c != 1 {
				t.Errorf("workers=%d: index %d claimed %d times", workers, i, c)
			}
			switch {
			case i == n/4:
				cancel()
			case i > n/4:
				<-ctx.Done()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		ran := 0
		for i := range perIndex {
			if c := perIndex[i].Load(); c > 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			} else if c == 1 {
				ran++
			}
		}
		if ran <= n/4 || ran > n/4+workers {
			t.Errorf("workers=%d: %d of %d indices ran; want more than %d and at most %d", workers, ran, n, n/4, n/4+workers)
		}
	}
}

// TestParallelForCtxPanicRecovered: a panicking body must surface as a
// *PanicError with the worker's stack — not kill the process — and
// stop further claims.
func TestParallelForCtxPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 50
		err := ParallelFor(context.Background(), n, workers, func(i int) error {
			if i == 3 {
				panic("chaos body panic")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "chaos body panic" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: recovered %+v with %d stack bytes", workers, pe.Value, len(pe.Stack))
		}
	}
	// Rethrow re-raises a recovered worker panic with its stack attached.
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Rethrow swallowed the panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "recovered worker stack") {
			t.Fatalf("re-raised panic %v lacks the worker stack", v)
		}
	}()
	Rethrow(ParallelFor(context.Background(), 4, 2, func(i int) error {
		if i == 1 {
			panic("rethrown")
		}
		return nil
	}))
}

// TestParallelForCtxBodyErrorStops: the first body error is returned and
// stops further claims without panicking.
func TestParallelForCtxBodyErrorStops(t *testing.T) {
	sentinel := errors.New("boom")
	err := ParallelFor(context.Background(), 100, 4, func(i int) error {
		if i == 10 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the body's error", err)
	}
}
