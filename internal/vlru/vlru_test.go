package vlru

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// newIntCache prices each int value at itself, so tests can size entries
// and budgets directly.
func newIntCache(budget int64) *Cache[string, int] {
	return New(budget, func(_ string, v int) int64 { return int64(v) })
}

// fresh probes with staleness disabled and returns the value on a Fresh hit,
// -1 otherwise.
func fresh(c *Cache[string, int], k string, version int64) int {
	v, st := c.Get(k, version, 0)
	if st != Fresh {
		return -1
	}
	return v
}

func TestHitAndNewerProbePurges(t *testing.T) {
	c := newIntCache(1 << 20)
	c.Put("a", 0, 7)
	if got := fresh(c, "a", 0); got != 7 {
		t.Fatalf("fresh entry: got %d, want 7", got)
	}
	// A probe at a newer version misses and purges: version 0 can never be
	// the current one again.
	if got := fresh(c, "a", 1); got != -1 {
		t.Fatalf("outdated entry served: %d", got)
	}
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("outdated entry still resident: len %d, used %d", c.Len(), c.used)
	}
	if got := fresh(c, "a", 0); got != -1 {
		t.Fatal("purged entry reappeared")
	}
}

// TestOlderProbeKeepsNewerEntry: a reader that loaded the version just
// before a bump must not evict the result a newer reader stored.
func TestOlderProbeKeepsNewerEntry(t *testing.T) {
	c := newIntCache(1 << 20)
	c.Put("a", 2, 7)
	if _, st := c.Get("a", 1, time.Minute); st != Miss {
		t.Fatalf("older-version probe: state %d, want Miss", st)
	}
	if got := fresh(c, "a", 2); got != 7 {
		t.Fatalf("newer entry lost to an older probe: got %d", got)
	}
}

func TestNewerPutReplaces(t *testing.T) {
	c := newIntCache(1 << 20)
	c.Put("a", 0, 5)
	if ev := c.Put("a", 1, 6); ev != 0 {
		t.Fatalf("replacing put reported %d evictions", ev)
	}
	if c.Len() != 1 || c.used != 6 {
		t.Fatalf("after replace: len %d, used %d; want 1, 6", c.Len(), c.used)
	}
	if got := fresh(c, "a", 1); got != 6 {
		t.Fatalf("replacement: got %d, want 6", got)
	}
	// A racing put of an older version loses instead of clobbering.
	c.Put("a", 0, 9)
	if got := fresh(c, "a", 1); got != 6 {
		t.Fatal("older racing put clobbered the newer entry")
	}
}

func TestDuplicatePutNotDoubleCounted(t *testing.T) {
	c := newIntCache(1 << 20)
	c.Put("a", 3, 5)
	c.Put("a", 3, 8)
	if c.Len() != 1 || c.used != 5 {
		t.Fatalf("duplicate put changed the cache: len %d, used %d", c.Len(), c.used)
	}
	if got := fresh(c, "a", 3); got != 5 {
		t.Fatalf("duplicate put replaced the first store: got %d", got)
	}
}

func TestCostBoundEviction(t *testing.T) {
	c := newIntCache(25)
	var evicted int64
	for i := 0; i < 10; i++ {
		evicted += c.Put(fmt.Sprintf("k%d", i), 0, 10)
	}
	if c.used > c.budget {
		t.Fatalf("used %d exceeds budget %d", c.used, c.budget)
	}
	if c.Len() != 2 || evicted != 8 {
		t.Fatalf("len %d, evicted %d; want 2, 8", c.Len(), evicted)
	}
	if fresh(c, "k9", 0) == -1 || fresh(c, "k8", 0) == -1 {
		t.Error("most recent entries evicted")
	}
	if fresh(c, "k0", 0) != -1 {
		t.Error("least recent entry survived")
	}
}

func TestLRUOrder(t *testing.T) {
	c := newIntCache(30)
	c.Put("a", 0, 10)
	c.Put("b", 0, 10)
	c.Put("c", 0, 10)
	fresh(c, "a", 0) // refresh a: b is now least recent
	if ev := c.Put("d", 0, 10); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if fresh(c, "b", 0) != -1 {
		t.Error("LRU victim b survived")
	}
	if fresh(c, "a", 0) == -1 || fresh(c, "c", 0) == -1 || fresh(c, "d", 0) == -1 {
		t.Error("an entry other than the LRU victim was evicted")
	}
}

// TestUnitCostIsCountBound: with every entry priced at 1 the budget is an
// entry count, the shape of a capacity-bounded LRU.
func TestUnitCostIsCountBound(t *testing.T) {
	c := New(2, func(string, struct{}) int64 { return 1 })
	c.Put("a", 1, struct{}{})
	c.Put("b", 1, struct{}{})
	c.Get("a", 1, 0) // refresh a
	if ev := c.Put("c", 1, struct{}{}); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, st := c.Get("b", 1, 0); st != Miss {
		t.Error("LRU victim b survived")
	}
	if _, st := c.Get("a", 1, 0); st != Fresh {
		t.Error("recently used entry a evicted")
	}
}

func TestOversizedEntryKept(t *testing.T) {
	c := newIntCache(10)
	c.Put("small", 0, 5)
	if ev := c.Put("huge", 0, 100); ev != 1 {
		t.Fatalf("evictions = %d, want 1 (the small entry)", ev)
	}
	if got := fresh(c, "huge", 0); got != 100 || c.Len() != 1 {
		t.Fatalf("oversized entry not kept alone: got %d, len %d", got, c.Len())
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache[string, int]
	if v, st := c.Get("x", 0, time.Minute); v != 0 || st != Miss {
		t.Fatal("nil cache hit")
	}
	if c.Put("x", 0, 1) != 0 || c.Len() != 0 {
		t.Fatal("nil cache stored an entry")
	}
}

func TestStaleWindow(t *testing.T) {
	c := newIntCache(1 << 20)
	c.Put("a", 1, 7)
	if v, st := c.Get("a", 2, time.Minute); st != Stale || v != 7 {
		t.Fatalf("probe inside the window: %d, %d; want Stale, 7", st, v)
	}
	// The window runs from the first stale observation, not from each probe.
	first := c.m["a"].Value.(*entry[string, int]).staleSince
	if v, st := c.Get("a", 3, time.Minute); st != Stale || v != 7 {
		t.Fatalf("second probe inside the window: %d, %d", st, v)
	}
	if got := c.m["a"].Value.(*entry[string, int]).staleSince; !got.Equal(first) {
		t.Fatal("a later stale probe restarted the window")
	}
	// Past the window the entry is purged.
	c.m["a"].Value.(*entry[string, int]).staleSince = first.Add(-2 * time.Minute)
	if _, st := c.Get("a", 3, time.Minute); st != Miss || c.Len() != 0 {
		t.Fatalf("expired entry: state %d, len %d; want Miss, 0", st, c.Len())
	}
	// With staleness disabled an outdated entry is purged at once.
	c.Put("b", 1, 7)
	if _, st := c.Get("b", 2, 0); st != Miss || c.Len() != 0 {
		t.Fatalf("maxStale 0: state %d, len %d; want Miss, 0", st, c.Len())
	}
}

// TestConcurrentAccess drives Get, Put and Len from several goroutines over
// a budget small enough to evict; run under -race.
func TestConcurrentAccess(t *testing.T) {
	c := newIntCache(50)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g+i)%13)
				v := int64(i % 4)
				c.Put(k, v, 10)
				c.Get(k, v+int64(g%2), time.Millisecond)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry[string, int]).cost
	}
	if sum != c.used || len(c.m) != c.ll.Len() || c.used > c.budget {
		t.Fatalf("bookkeeping drifted: used %d, summed %d, map %d, list %d", c.used, sum, len(c.m), c.ll.Len())
	}
}
