package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/obs"
)

// Brownout: graceful degradation under sustained overload. Instead of one
// cliff (queue full → 429), the server walks a ladder of progressively
// cheaper service levels and walks back down when pressure clears:
//
//	normal    → full-quality computes, degraded retry allowed
//	degraded  → computes forced onto the top-k path view (200 + degraded:true)
//	stale     → stop revalidating; stale cache hits served without recompute
//	shed      → uncached lookups get 503 before touching admission
//
// The drivers are the admission queue fraction and the rolling SLO burn
// rate (errors as a multiple of the SLO's error allowance). The ladder
// ENGAGES a step as soon as either signal crosses its engage threshold —
// reacting fast is the point — but deepens or RECOVERS only after a dwell
// period with the signals beyond (resp. below) threshold, and the band
// between engage and recover thresholds holds the current level. That
// hysteresis keeps a load oscillating around the threshold from flapping
// the service level request-to-request.
//
// The ladder is the server's only say in the engine's degraded retry: a
// compute samples the level once, when it starts. At "normal" a blown
// per-name budget gets its one degraded retry; at "degraded" and deeper the
// first attempt already runs on the cut view, so there is nothing to retry.

// brownoutLevel is a rung of the degradation ladder. Levels are ordered:
// a higher level includes every restriction of the levels below it.
type brownoutLevel int32

const (
	brownoutNormal   brownoutLevel = iota
	brownoutDegraded               // force top-k degraded computes
	brownoutStale                  // additionally: stop background revalidation
	brownoutShed                   // additionally: 503 uncached lookups
)

func (l brownoutLevel) String() string {
	switch l {
	case brownoutNormal:
		return "normal"
	case brownoutDegraded:
		return "degraded"
	case brownoutStale:
		return "stale"
	case brownoutShed:
		return "shed"
	default:
		return "unknown"
	}
}

// Ladder thresholds. Engage when the queue is three-quarters full or the
// error budget is burning at twice the sustainable rate; recover only once
// the queue is a quarter full AND burn is back inside the allowance. The
// wide dead band plus the dwell is the anti-flap margin.
const (
	DefaultBrownoutEngageQueue  = 0.75
	DefaultBrownoutRecoverQueue = 0.25
	DefaultBrownoutEngageBurn   = 2.0
	DefaultBrownoutRecoverBurn  = 1.0
	// DefaultBrownoutDwell is how long the ladder holds a level before
	// deepening or recovering another step.
	DefaultBrownoutDwell = 3 * time.Second
	// brownoutEvalInterval rate-limits ladder evaluation; the signals move
	// on second granularity, so evaluating per-request would buy nothing.
	brownoutEvalInterval = 250 * time.Millisecond
)

// brownout tracks the ladder state. Safe for concurrent use; nil disables
// (current() reports brownoutNormal).
type brownout struct {
	engageQueue, recoverQueue float64
	engageBurn, recoverBurn   float64
	dwell                     time.Duration

	level    atomic.Int32 // brownoutLevel
	lastEval atomic.Int64 // unix nanos of the last evaluation

	mu    sync.Mutex
	since time.Time // when the current level was entered
	lastQ float64   // last observed signals, for status()
	lastB float64

	gLevel   *obs.Gauge
	cEngage  *obs.Counter
	cRecover *obs.Counter
}

func newBrownout(reg *obs.Registry, now time.Time) *brownout {
	b := &brownout{
		engageQueue:  DefaultBrownoutEngageQueue,
		recoverQueue: DefaultBrownoutRecoverQueue,
		engageBurn:   DefaultBrownoutEngageBurn,
		recoverBurn:  DefaultBrownoutRecoverBurn,
		dwell:        DefaultBrownoutDwell,
		gLevel:       reg.Gauge("serve.brownout_level"),
		cEngage:      reg.Counter("serve.brownout_engaged"),
		cRecover:     reg.Counter("serve.brownout_recovered"),
		since:        now,
	}
	return b
}

// current returns the ladder level without locking — the per-request read.
func (b *brownout) current() brownoutLevel {
	if b == nil {
		return brownoutNormal
	}
	return brownoutLevel(b.level.Load())
}

// due reports whether an evaluation is owed at now, claiming the slot when
// so. The CAS keeps concurrent request tails from piling onto observe.
func (b *brownout) due(now time.Time) bool {
	if b == nil {
		return false
	}
	last := b.lastEval.Load()
	n := now.UnixNano()
	if n-last < int64(brownoutEvalInterval) {
		return false
	}
	return b.lastEval.CompareAndSwap(last, n)
}

// observe feeds one (queue fraction, burn rate) sample to the ladder and
// returns the level after the step. Overload engages the FIRST step
// immediately; each deeper step and every recovery step requires the dwell
// to have elapsed at the current level.
func (b *brownout) observe(queueFrac, burn float64, now time.Time) brownoutLevel {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastQ, b.lastB = queueFrac, burn
	level := brownoutLevel(b.level.Load())
	overloaded := queueFrac >= b.engageQueue || burn >= b.engageBurn
	calm := queueFrac <= b.recoverQueue && burn <= b.recoverBurn
	dwelled := now.Sub(b.since) >= b.dwell
	switch {
	case overloaded && level < brownoutShed && (level == brownoutNormal || dwelled):
		level++
		b.setLocked(level, now)
		b.cEngage.Inc()
	case calm && level > brownoutNormal && dwelled:
		level--
		b.setLocked(level, now)
		b.cRecover.Inc()
	}
	return level
}

// setLocked publishes a level change; callers hold mu.
func (b *brownout) setLocked(level brownoutLevel, now time.Time) {
	b.level.Store(int32(level))
	b.since = now
	b.gLevel.Set(float64(level))
}

// brownoutStatus is the healthz?verbose=1 view of the ladder.
type brownoutStatus struct {
	Enabled      bool    `json:"enabled"`
	State        string  `json:"state"`
	Level        int     `json:"level"`
	QueueFrac    float64 `json:"queue_frac"`
	BurnRate     float64 `json:"burn_rate"`
	SinceSeconds float64 `json:"since_seconds"`
}

func (b *brownout) status(now time.Time) brownoutStatus {
	if b == nil {
		return brownoutStatus{Enabled: false, State: "off"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	level := brownoutLevel(b.level.Load())
	return brownoutStatus{
		Enabled:      true,
		State:        level.String(),
		Level:        int(level),
		QueueFrac:    b.lastQ,
		BurnRate:     b.lastB,
		SinceSeconds: now.Sub(b.since).Seconds(),
	}
}
