// Package vlru is a cost-bounded LRU whose entries carry the version of the
// data they were computed from. Versions are a store's mutation counter:
// monotonic, so an entry computed at version V is the truth for V only and
// is outdated — never wrong for an older reader to skip — once the store
// has moved on. One entry is kept per key.
//
// The contract of a probe Get(k, version, maxStale) against the entry for k:
//
//   - At an equal version: Fresh.
//   - At a newer version than the entry: Stale while inside maxStale,
//     counted from the entry's first stale observation, so a long-lived
//     entry is still servable for the whole window after the bump that
//     outdated it. Past the window (or with maxStale <= 0) the entry is
//     purged and the probe is a Miss.
//   - At an older version than the entry: a Miss, and the entry is kept. A
//     reader that loaded the version just before a bump must not evict the
//     result a newer reader already stored.
//
// A Put at a version equal to or older than the stored entry's is a no-op,
// so a slow computation can never clobber a fresher result; a Put at a
// newer version replaces the entry. Eviction is least-recently-used by
// cost: after a Put, entries leave from the cold end until the total cost
// fits the budget, except that the newest entry always stays, even alone
// and over budget — the repeat probes a cache exists for would otherwise
// never hit.
//
// A nil *Cache is inert: every Get misses and every Put stores nothing.
package vlru

import (
	"container/list"
	"sync"
	"time"
)

// State classifies a probe outcome.
type State int

const (
	Miss  State = iota
	Fresh       // entry at exactly the probed version
	Stale       // older-version entry inside the stale window
)

type entry[K comparable, V any] struct {
	key     K
	version int64
	val     V
	cost    int64
	// staleSince is when the entry was first probed at a newer version
	// (zero until then); the stale window is measured from here.
	staleSince time.Time
}

// Cache is a versioned LRU bounded by the summed cost of its entries. Safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	cost   func(K, V) int64
	ll     *list.List // front = most recently used; values are *entry[K, V]
	m      map[K]*list.Element
}

// New returns an empty cache holding entries of total cost at most budget,
// pricing each entry with cost.
func New[K comparable, V any](budget int64, cost func(K, V) int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get probes the entry for k at version under the package contract.
func (c *Cache[K, V]) Get(k K, version int64, maxStale time.Duration) (V, State) {
	var zero V
	if c == nil {
		return zero, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return zero, Miss
	}
	e := el.Value.(*entry[K, V])
	switch {
	case e.version == version:
		c.ll.MoveToFront(el)
		return e.val, Fresh
	case e.version > version:
		return zero, Miss
	}
	if maxStale > 0 {
		now := time.Now()
		if e.staleSince.IsZero() {
			e.staleSince = now
		}
		if now.Sub(e.staleSince) <= maxStale {
			c.ll.MoveToFront(el)
			return e.val, Stale
		}
	}
	c.remove(el)
	return zero, Miss
}

// Put stores v as the entry for k at version and returns how many other
// keys' entries were evicted to fit the budget.
func (c *Cache[K, V]) Put(k K, version int64, v V) (evicted int64) {
	if c == nil {
		return 0
	}
	cost := c.cost(k, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		if el.Value.(*entry[K, V]).version >= version {
			return 0
		}
		c.remove(el)
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, version: version, val: v, cost: cost})
	c.used += cost
	for c.used > c.budget && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
		evicted++
	}
	return evicted
}

// Len reports how many entries are cached.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// remove unlinks el; callers hold mu.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.m, e.key)
	c.used -= e.cost
}
