package sim

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"distinct/internal/obs"
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// TestSlotStoreDifferential drives the write-once neighborhood store the
// way the engine and the server do, and holds it to fresh propagation.
// Run under -race.
//
//   - Eight goroutines read overlapping blocks of a cold extractor, half
//     through NeighborhoodsCtx and half through Neighborhoods. The blocks
//     repeat references and hold a tuple inserted after the compile and a
//     tuple of a relation no path starts from. Every result must equal a
//     fresh Propagate bit for bit, and every caller must get the same
//     stored result for a reference.
//   - References first reached once their share key has a donor, by either
//     entry point, must alias the donor's windows on the shared paths.
//   - The sim.prefetch_* totals of a fixed call sequence must not depend
//     on the worker count.
func TestSlotStoreDifferential(t *testing.T) {
	ctx := context.Background()
	db, paths, refs, papers := paperWorld(t)
	ct := prop.CompileTrieCtx(ctx, db, prop.NewTrie(paths), 0)
	late := db.MustInsert("Publish", "ann", "p1")
	author := db.Relation("Authors").TupleIDs()[0]
	if int(late) < ct.NumTuples() || int(author) >= ct.NumTuples() {
		t.Fatalf("late %d and author %d against %d compiled tuples", late, author, ct.NumTuples())
	}
	pool := append(slices.Clone(refs), late, author)

	t.Run("concurrent", func(t *testing.T) {
		const callers = 8
		for round := 0; round < 20; round++ {
			ext := New(ct, nil)
			blocks := make([][]reldb.TupleID, callers)
			got := make([][]*prop.Neighborhoods, callers)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := range blocks {
				// Pool rotated by w, cut to two thirds, with its first
				// three references repeated at the end.
				rot := slices.Concat(pool[w%len(pool):], pool[:w%len(pool)])
				b := rot[:2*len(rot)/3]
				blocks[w] = slices.Concat(b, b[:3])
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					if w%2 == 0 {
						nbs, err := ext.NeighborhoodsCtx(ctx, blocks[w], 1+w%3)
						if err != nil {
							t.Error(err)
						}
						got[w] = nbs
						return
					}
					for _, r := range blocks[w] {
						got[w] = append(got[w], ext.Neighborhoods(r))
					}
				}(w)
			}
			close(start)
			wg.Wait()
			for w, block := range blocks {
				for i, r := range block {
					checkDonorFree(t, ct, paths, r, got[w][i])
					if kept := ext.Neighborhoods(r); got[w][i] != kept {
						t.Fatalf("round %d caller %d: ref %d's result is not the one the store keeps", round, w, r)
					}
				}
			}
		}
	})

	t.Run("borrow", func(t *testing.T) {
		ext := New(ct, nil)
		var firsts, rest []reldb.TupleID
		for _, rs := range papers {
			firsts = append(firsts, rs[0])
			rest = append(rest, rs[1:]...)
		}
		donors, err := ext.NeighborhoodsCtx(ctx, firsts, 2)
		if err != nil {
			t.Fatal(err)
		}
		half := len(rest) / 2
		block, err := ext.NeighborhoodsCtx(ctx, rest[:half], 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rest[half:] {
			block = append(block, ext.Neighborhoods(r))
		}
		k := 0
		for pi, rs := range papers {
			for _, r := range rs[1:] {
				checkDonorFree(t, ct, paths, r, block[k])
				nbs, donor := views(block[k]), views(donors[pi])
				k++
				for p := range paths {
					if sharedPath(paths[p]) && len(nbs[p].Keys) > 0 && &nbs[p].Keys[0] != &donor[p].Keys[0] {
						t.Fatalf("ref %d path %s does not alias its donor's window", r, paths[p])
					}
				}
			}
		}
	})

	t.Run("workers", func(t *testing.T) {
		counters := []string{"sim.prefetch_requested", "sim.prefetch_propagated", "sim.prefetch_shared"}
		var want []int64
		for _, workers := range []int{1, 2, 4} {
			reg := obs.NewRegistry()
			ext := New(ct, reg)
			ext.Neighborhoods(papers[2][1])
			for _, block := range [][]reldb.TupleID{pool[:len(pool)/2], slices.Concat(pool, pool)} {
				if _, err := ext.NeighborhoodsCtx(ctx, block, workers); err != nil {
					t.Fatal(err)
				}
			}
			var totals []int64
			for _, c := range counters {
				totals = append(totals, reg.Counter(c).Value())
			}
			if want == nil {
				want = totals
				// Every reference but the one read alone propagates, the
				// late insert never does, and every reference but each
				// paper's first borrows.
				if totals[1] != int64(len(pool)-2) || totals[2] != int64(len(refs)-len(papers)) {
					t.Fatalf("workers=%d: %v = %v", workers, counters, totals)
				}
			} else if !slices.Equal(totals, want) {
				t.Fatalf("workers=%d: %v = %v, workers=1 gave %v", workers, counters, totals, want)
			}
		}
	})
}

// TestDiscardedExtractorCollected: an extractor that has used every one of
// its pools and is then dropped must be collected by the first GC. The
// runtime's pool registry keeps each used sync.Pool reachable until the
// second GC after its last use, so a pool held inside the extractor would
// keep the extractor, with every neighborhood it stored, alive one GC
// longer.
func TestDiscardedExtractorCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		ext, refs := extractorFixture(t)
		nbs, err := ext.NeighborhoodsCtx(context.Background(), refs, 2)
		if err != nil {
			t.Fatal(err)
		}
		ext.PutBlockIndex(ext.IndexBlock(nbs, nil))
		ext.Pair(nbs[0], nbs[1], nil)
		runtime.SetFinalizer(ext, func(*Extractor) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a discarded extractor survived the first GC")
	}
}
