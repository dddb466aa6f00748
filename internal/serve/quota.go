package serve

import (
	"container/list"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"distinct/internal/obs"
)

// Per-client quotas: a token-bucket rate limit plus a concurrency cap keyed
// by client identity, layered UNDER the global admission semaphore. The
// global semaphore protects the server from aggregate load; quotas protect
// clients from each other — one hot client exhausting the queue would
// otherwise starve every quiet one behind 429s and latency it did nothing
// to earn. A throttled request never reaches admission: the hot client's
// rejections are cheap (no queue slot, no compute) and the quiet client's
// slots stay free.
//
// Identity is the X-Api-Key header when present, else the remote address's
// host (ports churn per connection and would shatter one client into
// thousands). Identity is advisory — the serving tier has no auth — but
// that is enough for fairness between well-behaved tenants and makes abuse
// by header-rotation visible in the per-client table at /debug/quotas.

// hdrAPIKey is the pre-canonicalized client-identity header, fetched with a
// direct map index like the other fast-path headers (see serve.go).
const hdrAPIKey = "X-Api-Key"

// quotaClientCap bounds the client table. Clients are evicted LRU, idle
// ones first; a table this size outlives any realistic tenant count, and
// header-rotation abuse cycles through it rather than growing memory.
const quotaClientCap = 4096

// clientBucket is one client's token bucket plus live counters.
type clientBucket struct {
	id     string
	tokens float64 // current tokens; one request costs one token
	last   time.Time
	// inflight is this client's live request count against the concurrency
	// cap; the stats fields feed /debug/quotas.
	inflight      int
	requests      int64
	throttledRate int64
	throttledConc int64
	elem          *list.Element
	// release decrements inflight; bound once at bucket creation so the
	// admit fast path hands out a closure without allocating one per request.
	release func()
}

// quotaSet is the per-client limiter. Safe for concurrent use; nil disables
// (acquire always admits).
type quotaSet struct {
	rps   float64 // steady-state tokens per second per client
	burst float64 // bucket capacity
	conc  int     // max in-flight requests per client (0 = unlimited)

	cThrottled *obs.Counter
	gClients   *obs.Gauge

	mu sync.Mutex
	m  map[string]*clientBucket
	ll *list.List // front = most recently used; values are *clientBucket
}

func newQuotaSet(rps float64, burst, conc int, reg *obs.Registry) *quotaSet {
	b := float64(burst)
	if b <= 0 {
		b = 2 * rps
		if b < 8 {
			b = 8
		}
	}
	return &quotaSet{
		rps:        rps,
		burst:      b,
		conc:       conc,
		cThrottled: reg.Counter("serve.quota_throttled"),
		gClients:   reg.Gauge("serve.quota_clients"),
		m:          make(map[string]*clientBucket),
		ll:         list.New(),
	}
}

// clientID extracts the quota identity for a request: the X-Api-Key header
// when set, else the remote host. It runs on every request behind a quota,
// so it must stay allocation-light.
func clientID(r *http.Request) string {
	if vs := r.Header[hdrAPIKey]; len(vs) > 0 && vs[0] != "" {
		return vs[0]
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// acquire charges one request to client id at time now. On admission it
// returns a release func (decrements the in-flight count; call exactly
// once) and ok = true. On throttle it returns ok = false and how long the
// client should wait before the bucket refills enough for one request
// (zero when throttled on concurrency — retry when an in-flight request
// finishes, which the client cannot predict).
func (q *quotaSet) acquire(id string, now time.Time) (release func(), retryAfter time.Duration, ok bool) {
	if q == nil {
		return releaseNop, 0, true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.m[id]
	if b == nil {
		b = &clientBucket{id: id, tokens: q.burst, last: now}
		b.release = func() {
			q.mu.Lock()
			b.inflight--
			q.mu.Unlock()
		}
		b.elem = q.ll.PushFront(b)
		q.m[id] = b
		q.evictIdleLocked()
		q.gClients.Set(float64(q.ll.Len()))
	} else {
		q.ll.MoveToFront(b.elem)
		if el := now.Sub(b.last).Seconds(); el > 0 {
			b.tokens += el * q.rps
			if b.tokens > q.burst {
				b.tokens = q.burst
			}
			b.last = now
		}
	}
	b.requests++
	if b.tokens < 1 {
		b.throttledRate++
		q.cThrottled.Inc()
		wait := time.Duration((1 - b.tokens) / q.rps * float64(time.Second))
		return nil, wait, false
	}
	if q.conc > 0 && b.inflight >= q.conc {
		b.throttledConc++
		q.cThrottled.Inc()
		return nil, 0, false
	}
	b.tokens--
	b.inflight++
	return b.release, 0, true
}

// releaseNop is the admit result of a nil quotaSet.
func releaseNop() {}

// evictIdleLocked trims the client table to quotaClientCap, oldest first,
// skipping clients with requests in flight (their release closure still
// points at the bucket). Callers hold mu.
func (q *quotaSet) evictIdleLocked() {
	for e := q.ll.Back(); e != nil && q.ll.Len() > quotaClientCap; {
		prev := e.Prev()
		b := e.Value.(*clientBucket)
		if b.inflight == 0 {
			q.ll.Remove(e)
			delete(q.m, b.id)
		}
		e = prev
	}
}

// quotaClientStatus is one row of the /debug/quotas table.
type quotaClientStatus struct {
	Client        string  `json:"client"`
	Tokens        float64 `json:"tokens"`
	Inflight      int     `json:"inflight"`
	Requests      int64   `json:"requests"`
	ThrottledRate int64   `json:"throttled_rate"`
	ThrottledConc int64   `json:"throttled_concurrency"`
}

// quotaStatus is the /debug/quotas body.
type quotaStatus struct {
	Enabled     bool                `json:"enabled"`
	RPS         float64             `json:"rps,omitempty"`
	Burst       float64             `json:"burst,omitempty"`
	Concurrency int                 `json:"concurrency,omitempty"`
	Clients     []quotaClientStatus `json:"clients,omitempty"`
}

// status snapshots every tracked client (tokens refilled to now so the
// numbers read true), sorted by client id for a stable view.
func (q *quotaSet) status(now time.Time) quotaStatus {
	if q == nil {
		return quotaStatus{Enabled: false}
	}
	q.mu.Lock()
	st := quotaStatus{Enabled: true, RPS: q.rps, Burst: q.burst, Concurrency: q.conc}
	for e := q.ll.Front(); e != nil; e = e.Next() {
		b := e.Value.(*clientBucket)
		tok := b.tokens
		if el := now.Sub(b.last).Seconds(); el > 0 {
			tok += el * q.rps
			if tok > q.burst {
				tok = q.burst
			}
		}
		st.Clients = append(st.Clients, quotaClientStatus{
			Client:        b.id,
			Tokens:        tok,
			Inflight:      b.inflight,
			Requests:      b.requests,
			ThrottledRate: b.throttledRate,
			ThrottledConc: b.throttledConc,
		})
	}
	q.mu.Unlock()
	sort.Slice(st.Clients, func(i, j int) bool { return st.Clients[i].Client < st.Clients[j].Client })
	return st
}
