package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"distinct/internal/core"
	"distinct/internal/obs/trace"
	"distinct/internal/serve"
)

// lookup-hot traffic. Names are ranked by their number of references, most
// first, on the assumption that a name on more papers is looked up more
// often; the rank is a property of the world, not of the run seed. The
// request share of rank k is proportional to k^-hotZipfS. No published
// measurement of author-name lookups was found, so the exponent is an
// assumption, taken below 1 as Breslau et al. found for web requests
// ("Web Caching and Zipf-like Distributions: Evidence and Implications",
// INFOCOM 1999). The share of requests for names that do not exist, and
// how many such names there are, are assumptions too: they make the 404
// path and its negative cache carry load.
const (
	hotZipfS        = 0.8
	hotUnknownNames = 50
	hotUnknownShare = 0.02
)

// lookupRun is the "lookup-cold" and "lookup-hot" workloads: GET
// /v1/name/{name} against the serving layer's handler, called in process
// by closed-loop clients (each waits for its reply before the next
// request), one per CPU.
//
// lookup-cold disables the result cache, so every request goes through
// admission, coalescing, the engine on warm neighborhoods, and rendering;
// names are drawn uniformly. lookup-hot runs the default server, rebuilt
// empty for each rep of c.hotRep requests: each name computes once per rep
// and every other request is served from the result or negative cache.
// On lookup-cold each client walks its own seeded shuffle of the names,
// reshuffling when it runs out: uniform draws in which every name comes up
// equally often, because the ~400 ms of the largest name would otherwise
// make throughput follow how often a run happens to draw it.
type lookupRun struct {
	c       config
	hot     bool
	fx      *fixture
	sv      *served
	popular []int     // lookup-hot: popularity rank -> name index
	cdf     []float64 // lookup-hot: cumulative request weight by rank
}

func (l *lookupRun) fixture() *fixture { return l.fx }

func (l *lookupRun) setup(ctx context.Context) error {
	l.fx, l.sv = nil, nil
	fx, err := newFixture(ctx, l.c, nil, nil)
	if err != nil {
		return err
	}
	unknown := 0
	if l.hot {
		unknown = hotUnknownNames
	}
	// The reference answers are computed through the backend the server
	// calls, which also warms the engine's neighborhood cache.
	sv, err := newServed(ctx, fx.eng, fx.names, unknown)
	if err != nil {
		return err
	}
	l.fx, l.sv = fx, sv
	// names is sorted, so a stable sort breaks ties by name.
	l.popular = make([]int, sv.known)
	for i := range l.popular {
		l.popular[i] = i
	}
	sort.SliceStable(l.popular, func(a, b int) bool {
		return sv.targets[l.popular[a]].numRefs > sv.targets[l.popular[b]].numRefs
	})
	l.cdf = make([]float64, sv.known)
	sum := 0.0
	for k := range l.cdf {
		sum += math.Pow(float64(k+1), -hotZipfS)
		l.cdf[k] = sum
	}
	return nil
}

// hotName draws a known name by popularity.
func (l *lookupRun) hotName(rng *rand.Rand) int {
	return l.popular[sort.SearchFloat64s(l.cdf, rng.Float64()*l.cdf[len(l.cdf)-1])]
}

func (l *lookupRun) phase(ctx context.Context, seconds float64, p probe) (*phaseResult, error) {
	var be serve.Backend = l.sv.backend
	var tb *timedBackend
	if p.span != nil {
		tb = &timedBackend{Backend: be, parent: p.span}
		be = tb
	}
	ph := &phaseResult{}
	sv := l.sv
	if l.hot {
		perClient := max(1, l.c.hotRep/l.c.clients)
		start := time.Now()
		for rep := 0; rep < l.c.minReps || time.Since(start).Seconds() < seconds; rep++ {
			srv, err := serve.New(serve.Options{Backend: be, Obs: p.reg})
			if err != nil {
				return nil, err
			}
			sv.measure(ph, srv.Handler(), sv.newClients(l.c.clients, l.c.seed, rep), func(cl *client) (int, bool) {
				if cl.sent >= perClient {
					return 0, false
				}
				if cl.rng.Float64() < hotUnknownShare {
					return sv.known + cl.rng.Intn(len(sv.targets)-sv.known), true
				}
				return l.hotName(cl.rng), true
			})
			srv.Close()
		}
	} else {
		srv, err := serve.New(serve.Options{Backend: be, CacheBytes: -1, Obs: p.reg})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		perClient := (l.c.minLookups + l.c.clients - 1) / l.c.clients
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		sv.measure(ph, srv.Handler(), sv.newClients(l.c.clients, l.c.seed, 0), func(cl *client) (int, bool) {
			if cl.sent >= perClient && !time.Now().Before(deadline) {
				return 0, false
			}
			return cl.deal(sv.known), true
		})
	}
	if tb != nil {
		ph.engine = tb.durations()
	}
	return ph, nil
}

// served is a warm engine behind the HTTP API, with the reference answer
// for every known name computed through the same backend the server calls.
type served struct {
	backend *serve.EngineBackend
	targets []target     // known names first, then unknown ones
	known   int          // len of the known prefix of targets
	refs    [][][]string // reference groups per known target
}

type target struct {
	name    string
	path    string
	numRefs int
}

func newServed(ctx context.Context, eng *core.Engine, names []string, unknown int) (*served, error) {
	be := serve.NewEngineBackend(eng, "paper-key")
	sv := &served{backend: be, known: len(names), refs: make([][][]string, len(names))}
	add := func(name string) {
		sv.targets = append(sv.targets, target{
			name:    name,
			path:    "/v1/name/" + url.PathEscape(name),
			numRefs: be.NumRefs(name),
		})
	}
	for _, name := range names {
		add(name)
	}
	for i := 0; i < unknown; i++ {
		name := fmt.Sprintf("Unknown Author%03d", i)
		if be.NumRefs(name) != 0 {
			return nil, fmt.Errorf("name %q meant to be unknown has references", name)
		}
		add(name)
	}
	err := forEach(len(names), runtime.GOMAXPROCS(0), func(i int) error {
		groups, inc, err := be.Disambiguate(ctx, names[i], core.BatchOptions{})
		if err != nil {
			return fmt.Errorf("reference answer for %q: %w", names[i], err)
		}
		if inc != nil {
			return fmt.Errorf("reference answer for %q: %s incident: %s", names[i], inc.Reason, inc.Err)
		}
		sv.refs[i] = groups
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sv, nil
}

// client is one closed-loop caller. Its requests are built once, one per
// target, and reused only by this client.
type client struct {
	rng  *rand.Rand
	deck []int // lookup-cold: this round's shuffle of the names
	reqs []*http.Request
	w    responseRecorder
	sent int
	lat  []time.Duration

	// The result part of the first 200 body per target, and how many
	// bodies matched it. Bodies are compared in the loop byte for byte and
	// the first one against the reference answer after the phase.
	first   [][]byte
	same    []int
	failed  int
	problem string
}

func (sv *served) newClients(n int, seed int64, rep int) []*client {
	cls := make([]*client, n)
	for ci := range cls {
		cl := &client{
			rng:   rand.New(rand.NewSource(seed<<24 ^ int64(rep)<<8 ^ int64(ci))),
			reqs:  make([]*http.Request, len(sv.targets)),
			w:     responseRecorder{hdr: http.Header{}},
			first: make([][]byte, len(sv.targets)),
			same:  make([]int, len(sv.targets)),
		}
		for i, t := range sv.targets {
			cl.reqs[i] = httptest.NewRequest(http.MethodGet, t.path, nil)
		}
		cls[ci] = cl
	}
	return cls
}

// measure runs the clients against h until next says stop, then checks
// every answer and folds the requests into ph.
func (sv *served) measure(ph *phaseResult, h http.Handler, cls []*client, next func(*client) (int, bool)) {
	runtime.GC()
	a0 := allocBytes()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				i, ok := next(cl)
				if !ok {
					return
				}
				cl.send(sv, h, i)
			}
		}(cl)
	}
	wg.Wait()
	ph.busy += time.Since(t0)
	ph.alloc += allocBytes() - a0
	for _, cl := range cls {
		ph.lat = append(ph.lat, cl.lat...)
		ph.attempted += cl.sent
		if cl.failed > 0 {
			ph.fail(cl.failed, cl.problem)
		}
		for i, body := range cl.first {
			if body == nil {
				continue
			}
			if problem := sv.verify(i, body); problem != "" {
				ph.fail(cl.same[i], problem)
			}
		}
	}
}

// resultEnd starts the per-request part of a name response: everything
// before it is the cached, shareable result.
var resultEnd = []byte(`,"cached":`)

func (cl *client) send(sv *served, h http.Handler, i int) {
	cl.w.reset()
	t0 := time.Now()
	h.ServeHTTP(&cl.w, cl.reqs[i])
	cl.lat = append(cl.lat, time.Since(t0))
	cl.sent++
	t := sv.targets[i]
	if i >= sv.known {
		if cl.w.code != http.StatusNotFound {
			cl.fail(fmt.Sprintf("unknown name %q: status %d, want 404", t.name, cl.w.code))
		}
		return
	}
	body := cl.w.body.Bytes()
	if cl.w.code != http.StatusOK {
		cl.fail(fmt.Sprintf("%q: status %d: %.200s", t.name, cl.w.code, body))
		return
	}
	cut := bytes.LastIndex(body, resultEnd)
	if cut < 0 {
		cl.fail(fmt.Sprintf("%q: malformed body %.200s", t.name, body))
		return
	}
	switch {
	case cl.first[i] == nil:
		cl.first[i] = bytes.Clone(body[:cut])
		cl.same[i] = 1
	case bytes.Equal(cl.first[i], body[:cut]):
		cl.same[i]++
	default:
		cl.fail(fmt.Sprintf("%q: answer changed between requests", t.name))
	}
}

// deal returns the next name of the client's shuffled deck of n names,
// reshuffling it when every name has been dealt.
func (cl *client) deal(n int) int {
	if len(cl.deck) == 0 {
		cl.deck = cl.rng.Perm(n)
	}
	i := cl.deck[0]
	cl.deck = cl.deck[1:]
	return i
}

func (cl *client) fail(problem string) {
	cl.failed++
	if cl.problem == "" {
		cl.problem = problem
	}
}

// verify compares the result part of a served body with the reference
// answer; it returns what differs, or "".
func (sv *served) verify(i int, result []byte) string {
	t := sv.targets[i]
	var got struct {
		Name     string          `json:"name"`
		NumRefs  int             `json:"num_refs"`
		Groups   [][]string      `json:"groups"`
		Degraded bool            `json:"degraded"`
		Incident json.RawMessage `json:"incident"`
	}
	if err := json.Unmarshal(append(slices.Clip(result), '}'), &got); err != nil {
		return fmt.Sprintf("%q: undecodable answer: %v", t.name, err)
	}
	switch {
	case got.Name != t.name || got.NumRefs != t.numRefs:
		return fmt.Sprintf("%q: answer is for %q with %d refs, want %d refs", t.name, got.Name, got.NumRefs, t.numRefs)
	case got.Degraded || got.Incident != nil:
		return fmt.Sprintf("%q: degraded answer, incident %s", t.name, got.Incident)
	case !slices.EqualFunc(got.Groups, sv.refs[i], slices.Equal[[]string]):
		return fmt.Sprintf("%q: groups differ from the reference answer", t.name)
	}
	return ""
}

// responseRecorder is a reusable http.ResponseWriter, so the client side
// adds almost nothing to the allocations the benchmark charges per request.
type responseRecorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *responseRecorder) Header() http.Header { return w.hdr }

func (w *responseRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseRecorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *responseRecorder) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// timedBackend decorates the server's backend in a traced run: every
// engine call gets a span and a recorded duration.
type timedBackend struct {
	serve.Backend
	parent *trace.Span

	mu  sync.Mutex
	dur []time.Duration
}

func (b *timedBackend) Disambiguate(ctx context.Context, name string, opts core.BatchOptions) ([][]string, *core.Incident, error) {
	sp := b.parent.Start("serve.engine")
	t0 := time.Now()
	groups, inc, err := b.Backend.Disambiguate(ctx, name, opts)
	d := time.Since(t0)
	sp.End()
	b.mu.Lock()
	b.dur = append(b.dur, d)
	b.mu.Unlock()
	return groups, inc, err
}

func (b *timedBackend) durations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.dur)
}
