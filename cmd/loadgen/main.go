// Command loadgen drives a running distinctd and reports latency
// percentiles against an SLO. It fetches the name universe from /v1/names,
// then fires GET /v1/name/{name} requests in one of two modes:
//
//   - closed loop (default): -workers goroutines, each issuing the next
//     request as soon as the previous answer lands — measures capacity;
//   - open loop (-rate R): requests start on a fixed schedule regardless of
//     how slow the server answers — measures behaviour under a fixed
//     offered load, the way real traffic arrives.
//
// Before the timed load pass it sweeps the name mix twice — "cold" (each
// name computed once, result cache empty) and "warm" (the same sweep again,
// served from cache) — so the cache's effect on p50 is part of every
// report. Server-side cache and coalescing counters are scraped from
// /metrics before and after each pass.
//
// The final line is the SLO verdict:
//
//	SLO PASS: warm p99 18ms <= 250ms, error rate 0.0% <= 1.0%
//
// and the exit code is 0 on pass, 2 on fail — wire it straight into CI.
//
// For overload drills the timed pass can model a population of distinct
// clients (-clients N stamps X-Api-Key: <prefix>-<i> round-robin, exercising
// the server's per-client quotas) and a writer mutating the database
// mid-run (-insert-every D POSTs /debug/bump, exercising
// stale-while-revalidate). The report then carries per-client request/error/
// 429 counts and p99, plus how many responses were served stale or degraded.
//
// Usage:
//
//	loadgen -addr localhost:8080 [-duration 10s] [-workers 8]
//	        [-rate 200]          open loop at 200 req/s instead
//	        [-min-refs 20]       name universe floor (GET /v1/names)
//	        [-skip-sweeps]       go straight to the timed load pass
//	        [-clients N]         distinct client identities (X-Api-Key)
//	        [-client-prefix P]   identity prefix (default "lgc")
//	        [-insert-every D]    bump the DB version every D during the load pass
//	        [-slo-p99 250ms] [-slo-errors 0.01]
//	        [-out report.json]   machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type passReport struct {
	Pass       string         `json:"pass"`
	Mode       string         `json:"mode"`
	Duration   float64        `json:"duration_s"`
	Requests   int            `json:"requests"`
	Errors     int            `json:"errors"`
	ErrorRate  float64        `json:"error_rate"`
	Throughput float64        `json:"throughput_rps"`
	P50MS      float64        `json:"p50_ms"`
	P95MS      float64        `json:"p95_ms"`
	P99MS      float64        `json:"p99_ms"`
	MaxMS      float64        `json:"max_ms"`
	Statuses   map[string]int `json:"statuses"`
	// Stale and Degraded count responses the server marked as served from a
	// previous database version (stale-while-revalidate) or computed on the
	// degraded path — the overload drills gate on these being nonzero.
	Stale    int `json:"stale,omitempty"`
	Degraded int `json:"degraded,omitempty"`
	// Bumps counts the /debug/bump version bumps this pass issued
	// (-insert-every).
	Bumps    int              `json:"bumps,omitempty"`
	Counters map[string]int64 `json:"counter_deltas,omitempty"`
	// Clients breaks the pass down per client identity (-clients); the quota
	// fairness gate reads Server5xx here.
	Clients []clientReport `json:"clients,omitempty"`
	// Slowest lists the pass's slowest requests with the X-Request-IDs
	// loadgen sent — cross-reference them against the server's
	// /debug/requests slow lane.
	Slowest []slowSample `json:"slowest,omitempty"`
}

// clientReport is one client identity's slice of a pass.
type clientReport struct {
	Client       string  `json:"client"`
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	Server5xx    int     `json:"server_5xx"`
	Throttled429 int     `json:"throttled_429"`
	P99MS        float64 `json:"p99_ms"`
	Stale        int     `json:"stale,omitempty"`
	Degraded     int     `json:"degraded,omitempty"`
}

// slowSample identifies one slow request by the id loadgen stamped on it.
type slowSample struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	MS     float64 `json:"ms"`
	Status int     `json:"status"`
}

type report struct {
	Target   string       `json:"target"`
	Names    int          `json:"names"`
	SLOP99MS float64      `json:"slo_p99_ms"`
	SLOErr   float64      `json:"slo_error_rate"`
	Passes   []passReport `json:"passes"`
	Verdict  string       `json:"verdict"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "localhost:8080", "distinctd address")
		duration    = flag.Duration("duration", 10*time.Second, "length of each pass")
		workers     = flag.Int("workers", 8, "closed-loop concurrency")
		rate        = flag.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
		minRefs     = flag.Int("min-refs", 20, "name universe floor for /v1/names")
		maxNames    = flag.Int("max-names", 64, "cap on the name mix (0 = all)")
		skipSweep   = flag.Bool("skip-sweeps", false, "skip the cold/warm cache sweeps before the load pass")
		seed        = flag.Int64("seed", 1, "name-mix shuffle seed")
		sloP99      = flag.Duration("slo-p99", 250*time.Millisecond, "p99 latency objective (judged on the load pass)")
		sloErr      = flag.Float64("slo-errors", 0.01, "error-rate objective (non-2xx fraction)")
		outPath     = flag.String("out", "", "write the JSON report to this file")
		clients     = flag.Int("clients", 0, "distinct client identities for the load pass (0 = no X-Api-Key header)")
		clientPre   = flag.String("client-prefix", "lgc", "client identity prefix: ids are <prefix>-0..N-1")
		insertEvery = flag.Duration("insert-every", 0, "POST /debug/bump this often during the load pass (0 = never); needs distinctd -admin-bump")
	)
	flag.Parse()
	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}

	names, err := fetchNames(client, base, *minRefs)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no names with >=%d refs at %s", *minRefs, base)
	}
	rng := rand.New(rand.NewSource(*seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if *maxNames > 0 && len(names) > *maxNames {
		names = names[:*maxNames]
	}
	mode := "closed"
	if *rate > 0 {
		mode = fmt.Sprintf("open@%.0frps", *rate)
	}
	fmt.Printf("loadgen: %s, %d names (min_refs=%d), %s loop, %v per pass\n",
		base, len(names), *minRefs, mode, *duration)

	rep := report{
		Target: base, Names: len(names),
		SLOP99MS: float64(*sloP99) / float64(time.Millisecond),
		SLOErr:   *sloErr,
	}
	runOne := func(label string, f func() passReport) passReport {
		before := scrapeCounters(client, base)
		pr := f()
		pr.Counters = counterDelta(before, scrapeCounters(client, base))
		rep.Passes = append(rep.Passes, pr)
		printPass(pr)
		return pr
	}
	if !*skipSweep {
		// Each sweep touches every name exactly once: the cold sweep measures
		// the engine's compute latency, the warm one the cache's.
		cold := runOne("cold", func() passReport { return runSweep(client, base, "cold", names, *workers) })
		warm := runOne("warm", func() passReport { return runSweep(client, base, "warm", names, *workers) })
		if warm.P50MS > 0 {
			fmt.Printf("cache effect: cold p50 %.2fms / warm p50 %.2fms = %.1fx\n",
				cold.P50MS, warm.P50MS, cold.P50MS/warm.P50MS)
		}
	}
	var ids []string
	for i := 0; i < *clients; i++ {
		ids = append(ids, fmt.Sprintf("%s-%d", *clientPre, i))
	}
	last := runOne("load", func() passReport {
		return runTimed(client, base, "load", names, timedConfig{
			duration: *duration, workers: *workers, rate: *rate, seed: *seed,
			clients: ids, insertEvery: *insertEvery,
		})
	})

	// The verdict judges the timed load pass — steady state, caches warm.
	pass := last.P99MS <= rep.SLOP99MS && last.ErrorRate <= *sloErr
	rep.Verdict = "PASS"
	if !pass {
		rep.Verdict = "FAIL"
	}
	fmt.Printf("SLO %s: %s p99 %.1fms <= %.0fms, error rate %.1f%% <= %.1f%%\n",
		rep.Verdict, last.Pass, last.P99MS, rep.SLOP99MS, last.ErrorRate*100, *sloErr*100)

	if *outPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *outPath)
	}
	if !pass {
		os.Exit(2)
	}
	return nil
}

// fetchNames reads the name universe. It goes out without an X-Api-Key, so
// a quota-enabled server keys it by remote host — the bucket a previous
// loadgen run from this machine may just have drained — and a 429/503 is
// retried after its Retry-After, a few times, before giving up.
func fetchNames(client *http.Client, base string, minRefs int) ([]string, error) {
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = client.Get(fmt.Sprintf("%s/v1/names?min_refs=%d", base, minRefs))
		if err != nil {
			return nil, err
		}
		if attempt >= 4 ||
			(resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) {
			break
		}
		resp.Body.Close()
		time.Sleep(retryAfter(resp))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET /v1/names: %s: %s", resp.Status, raw)
	}
	var body struct {
		Names []string `json:"names"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Names, nil
}

// scrapeCounters reads the server's counter map from /metrics; nil on any
// failure — counter deltas are a bonus, never a reason to abort a run.
func scrapeCounters(client *http.Client, base string) map[string]int64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	return snap.Counters
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	if after == nil {
		return nil
	}
	delta := make(map[string]int64)
	for name, v := range after {
		if !strings.HasPrefix(name, "serve.") {
			continue
		}
		if d := v - before[name]; d != 0 {
			delta[name] = d
		}
	}
	return delta
}

type sample struct {
	latency  time.Duration
	status   int
	failed   bool
	id       string
	name     string
	client   string
	stale    bool
	degraded bool
}

// envelopeFlags is the slice of a response body loadgen inspects: whether
// the server marked the answer stale (previous-version cache entry, recompute
// in flight) or degraded (reduced path set / brownout).
type envelopeFlags struct {
	Stale    bool `json:"stale"`
	Degraded bool `json:"degraded"`
}

// collector accumulates samples concurrently and folds them into a report.
type collector struct {
	client *http.Client
	base   string
	seq    atomic.Uint64

	mu      sync.Mutex
	samples []sample
}

func (c *collector) shoot(name, client string) { c.shootRetry(name, client, 0) }

// shootRetry issues one lookup, honoring Retry-After on 429/503 up to
// `retries` times — the sweep passes use it so every name lands exactly one
// computed result even when the mix outnumbers the server's compute slots.
// Only the final attempt's latency is recorded; backoff sleep is not server
// latency.
//
// Every attempt carries an X-Request-ID and a W3C traceparent, so the slow
// requests this pass reports can be found by id in the server's
// /debug/requests flight recorder and its access logs.
func (c *collector) shootRetry(name, client string, retries int) {
	seq := c.seq.Add(1)
	id := fmt.Sprintf("lg-%08d", seq)
	var s sample
	for attempt := 0; ; attempt++ {
		req, rerr := http.NewRequest("GET", c.base+"/v1/name/"+url.PathEscape(name), nil)
		if rerr != nil {
			s = sample{failed: true, id: id, name: name, client: client}
			break
		}
		req.Header.Set("X-Request-ID", id)
		req.Header.Set("traceparent", fmt.Sprintf("00-%032x-%016x-01", seq, seq))
		if client != "" {
			req.Header.Set("X-Api-Key", client)
		}
		t0 := time.Now()
		resp, err := c.client.Do(req)
		lat := time.Since(t0)
		s = sample{latency: lat, failed: err != nil, id: id, name: name, client: client}
		if err != nil {
			break
		}
		var flags envelopeFlags
		json.NewDecoder(resp.Body).Decode(&flags)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.stale, s.degraded = flags.Stale, flags.Degraded
		if attempt >= retries ||
			(s.status != http.StatusTooManyRequests && s.status != http.StatusServiceUnavailable) {
			break
		}
		time.Sleep(retryAfter(resp))
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// retryAfter is the backoff a 429/503 asks for: its Retry-After in
// seconds, else one second.
func retryAfter(resp *http.Response) time.Duration {
	if v, err := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); err == nil && v > 0 {
		return v
	}
	return time.Second
}

func (c *collector) report(label, mode string, elapsed time.Duration) passReport {
	pr := passReport{
		Pass: label, Mode: mode, Duration: elapsed.Seconds(),
		Statuses: make(map[string]int),
	}
	lats := make([]time.Duration, 0, len(c.samples))
	perClient := make(map[string]*clientReport)
	clientLats := make(map[string][]time.Duration)
	for _, s := range c.samples {
		pr.Requests++
		var cr *clientReport
		if s.client != "" {
			cr = perClient[s.client]
			if cr == nil {
				cr = &clientReport{Client: s.client}
				perClient[s.client] = cr
			}
			cr.Requests++
		}
		if s.failed {
			pr.Errors++
			pr.Statuses["error"]++
			if cr != nil {
				cr.Errors++
			}
			continue
		}
		pr.Statuses[fmt.Sprint(s.status)]++
		if s.status < 200 || s.status > 299 {
			pr.Errors++
		}
		if s.stale {
			pr.Stale++
		}
		if s.degraded {
			pr.Degraded++
		}
		if cr != nil {
			if s.status < 200 || s.status > 299 {
				cr.Errors++
			}
			if s.status >= 500 {
				cr.Server5xx++
			}
			if s.status == http.StatusTooManyRequests {
				cr.Throttled429++
			}
			if s.stale {
				cr.Stale++
			}
			if s.degraded {
				cr.Degraded++
			}
			clientLats[s.client] = append(clientLats[s.client], s.latency)
		}
		lats = append(lats, s.latency)
	}
	if len(perClient) > 0 {
		ids := make([]string, 0, len(perClient))
		for id := range perClient {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			cr := perClient[id]
			if cl := clientLats[id]; len(cl) > 0 {
				sort.Slice(cl, func(i, j int) bool { return cl[i] < cl[j] })
				cr.P99MS = float64(percentile(cl, 0.99)) / float64(time.Millisecond)
			}
			pr.Clients = append(pr.Clients, *cr)
		}
	}
	if pr.Requests > 0 && elapsed > 0 {
		pr.ErrorRate = float64(pr.Errors) / float64(pr.Requests)
		pr.Throughput = float64(pr.Requests) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		pr.P50MS = ms(percentile(lats, 0.50))
		pr.P95MS = ms(percentile(lats, 0.95))
		pr.P99MS = ms(percentile(lats, 0.99))
		pr.MaxMS = ms(lats[len(lats)-1])
	}
	pr.Slowest = slowest(c.samples, 5)
	return pr
}

// slowest returns the k slowest non-failed samples as id-bearing records.
func slowest(samples []sample, k int) []slowSample {
	ok := make([]sample, 0, len(samples))
	for _, s := range samples {
		if !s.failed {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].latency > ok[j].latency })
	if len(ok) > k {
		ok = ok[:k]
	}
	out := make([]slowSample, len(ok))
	for i, s := range ok {
		out[i] = slowSample{
			ID: s.id, Name: s.name,
			MS:     float64(s.latency) / float64(time.Millisecond),
			Status: s.status,
		}
	}
	return out
}

// runSweep requests every name exactly once, fanned over `workers`
// goroutines — one cache generation, no repeats.
func runSweep(client *http.Client, base, label string, names []string, workers int) passReport {
	c := &collector{client: client, base: base}
	t0 := time.Now()
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				c.shootRetry(name, "", 8)
			}
		}()
	}
	for _, name := range names {
		work <- name
	}
	close(work)
	wg.Wait()
	return c.report(label, "sweep", time.Since(t0))
}

// timedConfig parameterizes the timed load pass.
type timedConfig struct {
	duration time.Duration
	workers  int
	rate     float64
	seed     int64
	// clients, when non-empty, are X-Api-Key identities assigned round-robin
	// (per worker in the closed loop, per request in the open loop).
	clients []string
	// insertEvery, when positive, POSTs /debug/bump on that period for the
	// length of the pass — the insert-while-serving drill.
	insertEvery time.Duration
}

func runTimed(client *http.Client, base, label string, names []string, cfg timedConfig) passReport {
	c := &collector{client: client, base: base}
	deadline := time.Now().Add(cfg.duration)
	pick := func(i int) string {
		if len(cfg.clients) == 0 {
			return ""
		}
		return cfg.clients[i%len(cfg.clients)]
	}
	var bumps atomic.Int64
	if cfg.insertEvery > 0 {
		// The writer: bump the database version on a fixed period so the pass
		// crosses version boundaries mid-flight. Stale-while-revalidate is
		// judged by the stale counts this provokes.
		go func() {
			tick := time.NewTicker(cfg.insertEvery)
			defer tick.Stop()
			for time.Now().Before(deadline) {
				<-tick.C
				resp, err := client.Post(base+"/debug/bump", "application/json", nil)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					bumps.Add(1)
				}
			}
		}()
	}
	var wg sync.WaitGroup
	if cfg.rate > 0 {
		// Open loop: requests start on schedule no matter how the server is
		// doing — queueing delay shows up as latency, as it should.
		interval := time.Duration(float64(time.Second) / cfg.rate)
		rng := rand.New(rand.NewSource(cfg.seed))
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; time.Now().Before(deadline); i++ {
			name := names[rng.Intn(len(names))]
			id := pick(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.shoot(name, id)
			}()
			<-tick.C
		}
	} else {
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
				id := pick(w)
				for time.Now().Before(deadline) {
					c.shoot(names[rng.Intn(len(names))], id)
				}
			}(w)
		}
	}
	wg.Wait()
	mode := "closed"
	if cfg.rate > 0 {
		mode = "open"
	}
	pr := c.report(label, mode, cfg.duration)
	pr.Bumps = int(bumps.Load())
	return pr
}

// percentile reads the q-quantile from an ascending-sorted latency slice
// (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func printPass(pr passReport) {
	fmt.Printf("pass %-6s %7d req  %6.0f rps  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  max %7.2fms  errors %d (%.2f%%)\n",
		pr.Pass, pr.Requests, pr.Throughput, pr.P50MS, pr.P95MS, pr.P99MS, pr.MaxMS, pr.Errors, pr.ErrorRate*100)
	if pr.Stale > 0 || pr.Degraded > 0 || pr.Bumps > 0 {
		fmt.Printf("            served: stale=%d degraded=%d bumps=%d\n", pr.Stale, pr.Degraded, pr.Bumps)
	}
	for _, cr := range pr.Clients {
		fmt.Printf("            client %-12s %6d req  p99 %7.2fms  429s %d  5xx %d  stale %d  degraded %d\n",
			cr.Client, cr.Requests, cr.P99MS, cr.Throttled429, cr.Server5xx, cr.Stale, cr.Degraded)
	}
	if len(pr.Counters) > 0 {
		keys := make([]string, 0, len(pr.Counters))
		for k := range pr.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", strings.TrimPrefix(k, "serve."), pr.Counters[k])
		}
		fmt.Printf("            server: %s\n", strings.Join(parts, " "))
	}
	if len(pr.Slowest) > 0 {
		parts := make([]string, len(pr.Slowest))
		for i, s := range pr.Slowest {
			parts[i] = fmt.Sprintf("%s %s %.1fms/%d", s.ID, s.Name, s.MS, s.Status)
		}
		fmt.Printf("            slowest: %s\n", strings.Join(parts, "; "))
	}
}
