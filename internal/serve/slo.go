// Server-side SLO tracking: a rolling availability window over the /v1
// routes, surfaced as cumulative good/total counters plus a burn-rate gauge
// (how fast the error budget is being spent relative to the target), and as
// JSON in /healthz?verbose=1. See DESIGN.md §14.

package serve

import (
	"sync"
	"time"

	"distinct/internal/obs"
)

// DefaultSLOTarget is the availability objective when Options.SLOTarget is
// zero: 99% of requests answered without a server-side failure.
const DefaultSLOTarget = 0.99

// sloWindowSeconds is the rolling window the burn rate is computed over.
const sloWindowSeconds = 60

// sloBucket aggregates one second of outcomes.
type sloBucket struct {
	sec   int64 // unix second this bucket covers
	good  uint64
	total uint64
}

// sloTracker keeps a ring of per-second buckets. "Good" means the request
// was answered without a server failure: status < 500. Client-side outcomes
// (4xx, 499 cancellations) spend no error budget — the server did its job.
type sloTracker struct {
	target float64

	good  *obs.Counter // cumulative, for Prometheus rate() queries
	total *obs.Counter
	burn  *obs.Gauge // rolling burn rate, refreshed on observe

	mu      sync.Mutex
	buckets [sloWindowSeconds]sloBucket
}

func newSLOTracker(reg *obs.Registry, target float64) *sloTracker {
	if target <= 0 || target >= 1 {
		target = DefaultSLOTarget
	}
	return &sloTracker{
		target: target,
		good:   reg.Counter("serve.slo_good"),
		total:  reg.Counter("serve.slo_total"),
		burn:   reg.Gauge("serve.slo_burn_rate"),
	}
}

// observe records one finished request.
func (t *sloTracker) observe(status int, now time.Time) {
	good := status < 500
	t.total.Inc()
	if good {
		t.good.Inc()
	}
	sec := now.Unix()
	t.mu.Lock()
	b := &t.buckets[sec%sloWindowSeconds]
	if b.sec != sec {
		// The slot is stale (a full window has passed since it was last this
		// second-of-minute); recycle it.
		*b = sloBucket{sec: sec}
	}
	b.total++
	if good {
		b.good++
	}
	burn := t.burnLocked(sec)
	t.mu.Unlock()
	t.burn.Set(burn)
}

// burnLocked computes the burn rate over the live window: the observed error
// rate divided by the budgeted error rate (1-target). 1.0 means the budget
// is being spent exactly as fast as it accrues; >1 means it is being burned.
func (t *sloTracker) burnLocked(nowSec int64) float64 {
	var good, total uint64
	for i := range t.buckets {
		if nowSec-t.buckets[i].sec < sloWindowSeconds {
			good += t.buckets[i].good
			total += t.buckets[i].total
		}
	}
	if total == 0 {
		return 0
	}
	errRate := float64(total-good) / float64(total)
	return errRate / (1 - t.target)
}

// burnRate returns the rolling burn rate at now — the brownout ladder's
// second signal (0: no traffic, no burn).
func (t *sloTracker) burnRate(now time.Time) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.burnLocked(now.Unix())
}

// sloStatus is the /healthz?verbose=1 rendering of the window.
type sloStatus struct {
	Target        float64 `json:"target"`
	WindowSeconds int     `json:"window_seconds"`
	Good          uint64  `json:"good"`
	Total         uint64  `json:"total"`
	Availability  float64 `json:"availability"`
	BurnRate      float64 `json:"burn_rate"`
}

// status snapshots the rolling window.
func (t *sloTracker) status(now time.Time) sloStatus {
	nowSec := now.Unix()
	t.mu.Lock()
	var good, total uint64
	for i := range t.buckets {
		if nowSec-t.buckets[i].sec < sloWindowSeconds {
			good += t.buckets[i].good
			total += t.buckets[i].total
		}
	}
	burn := t.burnLocked(nowSec)
	t.mu.Unlock()
	st := sloStatus{
		Target:        t.target,
		WindowSeconds: sloWindowSeconds,
		Good:          good,
		Total:         total,
		Availability:  1,
		BurnRate:      burn,
	}
	if total > 0 {
		st.Availability = float64(good) / float64(total)
	}
	return st
}
