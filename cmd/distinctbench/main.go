// Command distinctbench is the repository benchmark. It generates a
// paper-scale DBLP-like world, drives the DISTINCT engine and its HTTP
// serving layer through their public entry points, checks every answer, and
// prints one "workload metric value unit" line per metric followed by a
// JSON result line.
//
// Usage, from the root of a checkout:
//
//	bash cmd/distinctbench/run.sh -workload sweep|lookup-cold|lookup-hot|all \
//	    -seed N [-seconds S] [-trace 0|1|DIR] [-json FILE] [-runs N]
//
// Without -trace (or with -trace 0) the run reports the end-to-end metrics
// BENCHMARK.json lists. -trace 1 or -trace DIR makes a separate traced run
// that reports the per-layer metrics instead, writes Chrome trace JSON to
// DIR (.bench_build/trace for 1), and prints a per-layer self-time table
// and the tracing overhead. -runs N is the A/A mode used to fix the
// regression bounds: it runs every selected workload N times in child
// processes, alternating the order, and prints each metric's median and
// quartiles. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// The metric names a run reports in its JSON result line. BENCHMARK.json at
// the repository root lists the same names, with units and bounds.
var (
	endToEndMetrics = []string{
		"setup_s", "heap_mb", "ops_per_s", "op_p50_ms",
	}
	perLayerMetrics = []string{
		"reldb.expand_s", "reldb.enumerate_s",
		"prop.compile_s", "prop.csr_hops", "prop.csr_edges", "prop.propagate_s", "prop.refs",
		"trainset.build_s", "trainset.pairs", "sim.features_s", "svm.train_s",
		"sim.similarities_s", "sim.pairs", "sim.ns_per_pair",
		"cluster.agglomerate_s", "cluster.merges", "cluster.heap_stale_pops",
		"core.blocks_cpu_s", "core.blocks_pairs_kept", "core.blocks_pairs_pruned", "core.sweep_residual_s",
		"serve.request_p50_ms", "serve.request_p99_ms",
		"serve.engine_p50_ms", "serve.engine_p99_ms", "serve.self_s_sum",
		"serve.cache_hit_ratio", "serve.computes", "serve.coalesced", "serve.negcache_hits",
		"runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.alloc_bytes_per_op",
	}
	workloadNames = []string{"sweep", "lookup-cold", "lookup-hot"}
)

// config sizes one run. defaultConfig is the paper-scale benchmark; the
// smoke test shrinks it.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	traceDir string  // non-empty: traced per-layer run writing here

	communities, authors int // world size; 0 keeps dblp.DefaultConfig
	trainPairs           int // positive and negative training pairs, each
	setups               int // full set-ups per run; setup_s is their median
	warmups              int // untimed sweep ops before timing
	minOps               int // least timed sweep ops
	minLookups           int // least timed lookup-cold requests
	hotRep               int // requests per lookup-hot rep
	minReps              int // least lookup-hot reps
	layerReps            int // repetitions of each replayed layer when traced
	clients              int // closed-loop client goroutines
}

func defaultConfig() config {
	return config{
		seconds:    30,
		trainPairs: 1000,
		setups:     3,
		warmups:    2,
		minOps:     3,
		minLookups: 1000,
		hotRep:     1_000_000,
		minReps:    2,
		layerReps:  3,
		clients:    runtime.NumCPU(),
	}
}

// metric is one reported value; n is the number of samples behind a
// statistic (0 for a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"`
}

// report is one workload's outcome.
type report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`

	order []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}}
}

func (r *report) add(name string, v float64, unit string, n int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// count folds a phase's attempted and failed operations into the report,
// keeping the first 20 problem descriptions.
func (r *report) count(attempted, failed int, problems []string) {
	r.Attempted += attempted
	r.Failed += failed
	for _, p := range problems {
		if len(r.Problems) < 20 {
			r.Problems = append(r.Problems, p)
		}
	}
}

func (r *report) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.add("error_rate", rate, "ratio", r.Attempted)
}

func (r *report) writeText(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, name, formatValue(m.Value), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s problem: %s\n", r.Workload, p)
	}
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf selects the declared metrics (end-to-end, or per-layer when
// traced) from the reports; with several workloads each name is prefixed
// with "workload/".
func resultOf(reports []*report, traced bool) (resultLine, error) {
	names := endToEndMetrics
	if traced {
		names = perLayerMetrics
	}
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, name := range names {
			m, ok := r.Metrics[name]
			if !ok {
				return line, fmt.Errorf("%s: metric %s was not measured", r.Workload, name)
			}
			key := name
			if len(reports) > 1 {
				key = r.Workload + "/" + name
			}
			line.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return line, nil
}

// machine identifies where a run was made: numbers from different machines
// are never compared.
type machine struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func machineOf(c config) machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Traced:     c.traceDir != "",
	}
}

func (m machine) writeText(w io.Writer) {
	fmt.Fprintf(w, "# machine cpu=%q num_cpu=%d gomaxprocs=%d go=%s platform=%s seed=%d seconds=%g traced=%t\n",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Platform, m.Seed, m.Seconds, m.Traced)
}

func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		return workloadNames, nil
	}
	for _, w := range workloadNames {
		if w == name {
			return []string{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// benchmark runs the selected workloads and prints their text lines to out.
// The returned reports carry every metric measured.
func benchmark(ctx context.Context, c config, out io.Writer) ([]*report, error) {
	names, err := selectWorkloads(c.workload)
	if err != nil {
		return nil, err
	}
	var reports []*report
	for _, name := range names {
		cw := c
		cw.workload = name
		r, err := runWorkload(ctx, cw, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.writeText(out)
		reports = append(reports, r)
	}
	return reports, nil
}

func main() {
	c := defaultConfig()
	flag.StringVar(&c.workload, "workload", "all", "sweep, lookup-cold, lookup-hot or all")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the lookup request streams")
	flag.Float64Var(&c.seconds, "seconds", c.seconds, "length of the timed phase in seconds")
	traceArg := flag.String("trace", "0", "0: end-to-end metrics; 1 or DIR: traced per-layer run writing Chrome trace JSON to DIR (1 means .bench_build/trace)")
	jsonPath := flag.String("json", "", "also write the full report, with sample counts, to this file")
	runs := flag.Int("runs", 0, "A/A mode: run each workload this many times in child processes and print medians and quartiles")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	switch *traceArg {
	case "0", "":
	case "1":
		c.traceDir = filepath.Join(".bench_build", "trace")
	default:
		c.traceDir = *traceArg
	}
	if *runs > 0 {
		os.Exit(aaRuns(c, *runs))
	}

	m := machineOf(c)
	m.writeText(os.Stdout)
	reports, err := benchmark(context.Background(), c, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := resultOf(reports, c.traceDir != "")
	if err != nil {
		fatalf("%v", err)
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, struct {
			Machine machine   `json:"machine"`
			Results []*report `json:"results"`
		}{m, reports}); err != nil {
			fatalf("%v", err)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "distinctbench: "+format+"\n", args...)
	os.Exit(2)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
