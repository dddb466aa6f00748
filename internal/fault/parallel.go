package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Guard runs f, converting a panic on this goroutine into a *PanicError
// carrying the recovered value and stack.
func Guard(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f()
}

// ParallelFor runs body(i) for i in [0,n) on `workers` goroutines
// (0 = GOMAXPROCS), claiming each index exactly once. body must write only
// to per-index state. Cancellation is observed between items, so the
// latency to return after a cancel is bounded by the slowest single item.
// A worker panic is recovered into a *PanicError instead of killing the
// process. The first failure (body error, panic, or context end) stops
// further claims; items already claimed run to completion, and no index is
// ever executed twice. It is the engine's one worker pool.
func ParallelFor(ctx context.Context, n, workers int, body func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := Guard(func() error { return body(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := Guard(func() error { return body(i) }); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Rethrow re-raises an error that cannot legitimately occur on a
// background-context, fault-free path: recovered worker panics come back
// with their original stack attached, anything else panics as-is.
func Rethrow(err error) {
	if err == nil {
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("%v\n\nrecovered worker stack:\n%s", pe.Value, pe.Stack))
	}
	panic(err)
}
