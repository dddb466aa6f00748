// Package fault is a deterministic, stdlib-only fault-injection harness
// for the DISTINCT pipeline. Stage boundaries call Point(ctx, name); when a
// Registry travels in the context and holds a matching Rule, the point
// fires — returning an injected error, panicking, sleeping, or running a
// hook (e.g. a context cancel) — per a schedule that is a pure function of
// the registry seed, the point name, and the point's hit number, so chaos
// runs reproduce.
//
// The package follows the obs/trace nil convention: a nil *Registry (and a
// context carrying none) is the off switch. Point on a plain context is a
// single Value lookup that finds nothing and returns nil, so production
// paths pay nothing beyond that check at stage granularity; per-item hot
// loops should resolve the registry once with From and skip firing when it
// is nil.
//
// The package also hosts PanicError, the error recovery points use to carry
// a recovered panic and its stack across goroutines instead of crashing the
// process, and the recovery points themselves: Guard (one call, e.g. the
// per-name batch guard), ParallelFor (the engine's one worker pool, used by
// core, sim and prop) and Rethrow (re-raise where an error is impossible).
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the default error an error-injecting rule returns,
// wrapped with the point name.
var ErrInjected = errors.New("injected fault")

// PanicError is a recovered panic converted into an error: the recovered
// value plus the stack of the goroutine that panicked. Recovery points use
// it so one pathological input becomes a reportable incident rather than a
// process crash; errors.As against *PanicError distinguishes "this stage
// panicked" from "this stage failed".
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// InjectedPanic is the value an injected panic panics with, so recovery
// layers (and tests) can tell injected panics from real ones and recover
// the point that fired.
type InjectedPanic struct {
	Point string
	Msg   string
}

func (p InjectedPanic) String() string { return "fault: " + p.Point + ": panic: " + p.Msg }

// Rule describes when and how one injection point fires. Exactly one of
// the action fields (Err / Panic / Delay / Hook) is normally set; a rule
// with no action set acts as an error rule returning ErrInjected. When
// several are set they compose in order hook, delay, panic, error.
type Rule struct {
	// OnHit fires the rule on the Nth time the point is hit (1-based).
	// Zero with Every and Prob zero fires on every hit.
	OnHit int64
	// Every fires the rule on every Nth hit (hit numbers divisible by it).
	Every int64
	// Prob fires the rule pseudo-randomly with this probability per hit,
	// derived deterministically from (seed, point, hit number) — the same
	// seed replays the same firing pattern.
	Prob float64

	// Err is returned from Point, wrapped with the point name. Nil with
	// Panic/Delay/Hook also unset means ErrInjected.
	Err error
	// Panic, when non-empty, panics with an InjectedPanic carrying it.
	Panic string
	// Delay, when positive, sleeps before returning; the sleep observes
	// ctx and returns ctx.Err() early if the context ends first.
	Delay time.Duration
	// Hook, when non-nil, runs when the rule fires (typically a context
	// cancel; the point re-checks ctx after running it).
	Hook func()
}

// matches reports whether the rule fires on hit n of point.
func (r Rule) matches(seed int64, point string, n int64) bool {
	switch {
	case r.OnHit > 0:
		return n == r.OnHit
	case r.Every > 0:
		return n%r.Every == 0
	case r.Prob > 0:
		return splitmix(uint64(seed)^hashString(point)^uint64(n)) < r.Prob
	default:
		return true
	}
}

// Firing records one fired injection, for assertions and chaos reports.
type Firing struct {
	Point string
	Hit   int64
	Kind  string // "error", "panic", "delay", "hook"
}

// Registry holds the fault schedule: one rule per point plus per-point hit
// counters and a log of what fired. The nil Registry never fires.
type Registry struct {
	seed int64

	mu    sync.Mutex
	rules map[string]Rule
	hits  map[string]int64
	log   []Firing
}

// NewRegistry returns an enabled registry whose probabilistic rules are
// driven by seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		seed:  seed,
		rules: make(map[string]Rule),
		hits:  make(map[string]int64),
	}
}

// Set installs (or, replacing, updates) the rule for a point.
func (r *Registry) Set(point string, rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[point] = rule
}

// Hits returns how many times the point has been hit (fired or not).
func (r *Registry) Hits(point string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}

// Firings returns a copy of the fired-injection log, in firing order.
func (r *Registry) Firings() []Firing {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Firing(nil), r.log...)
}

// Fire counts a hit on the point and applies its rule if one matches.
// Safe on a nil registry (returns nil without counting).
func (r *Registry) Fire(ctx context.Context, point string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.hits[point] + 1
	r.hits[point] = n
	rule, ok := r.rules[point]
	fire := ok && rule.matches(r.seed, point, n)
	if fire {
		r.log = append(r.log, Firing{Point: point, Hit: n, Kind: ruleKind(rule)})
	}
	r.mu.Unlock()
	if !fire {
		return nil
	}
	if rule.Hook != nil {
		rule.Hook()
	}
	if rule.Delay > 0 {
		t := time.NewTimer(rule.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if rule.Panic != "" {
		panic(InjectedPanic{Point: point, Msg: rule.Panic})
	}
	if rule.Err != nil {
		return fmt.Errorf("fault: %s: %w", point, rule.Err)
	}
	if rule.Hook != nil || rule.Delay > 0 {
		// Hook/delay-only rules succeed, but surface a cancel the hook (or
		// the wait) may have caused so callers observe it immediately.
		return ctx.Err()
	}
	return fmt.Errorf("fault: %s: %w", point, ErrInjected)
}

// ruleKind names the rule's dominant action for the firing log.
func ruleKind(r Rule) string {
	switch {
	case r.Panic != "":
		return "panic"
	case r.Delay > 0:
		return "delay"
	case r.Err != nil:
		return "error"
	case r.Hook != nil:
		return "hook"
	default:
		return "error"
	}
}

// ctxKey is the context key a registry travels under.
type ctxKey struct{}

// With returns a context carrying the registry; the pipeline's injection
// points see it wherever that context flows.
func With(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the registry from ctx (nil when none travels in it). Hot
// loops call From once per stage and fire only on a non-nil registry.
func From(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}

// Point counts a hit on the named injection point of whatever registry
// travels in ctx, applying its rule. With no registry it is a single
// context lookup returning nil — the production fast path.
func Point(ctx context.Context, name string) error {
	return From(ctx).Fire(ctx, name)
}

// splitmix maps x to [0,1) via the splitmix64 finalizer — a tiny, seeded,
// allocation-free uniform hash for probabilistic rules.
func splitmix(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
