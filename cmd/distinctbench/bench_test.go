package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against: the metric names and units each run must print.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// smokeConfig is a seconds-long run: the mid-size world (6 communities of
// 50 authors), two timed sweeps, a few hundred lookups per lookup workload.
func smokeConfig() config {
	c := defaultConfig()
	c.workload = "all"
	c.seed = 1
	c.seconds = 0
	c.communities, c.authors = 6, 50
	c.trainPairs = 300
	c.setups = 1
	c.warmups = 1
	c.minOps = 2
	c.minLookups = 300
	c.hotRep = 600
	c.minReps = 1
	c.layerReps = 1
	return c
}

// printed maps "workload metric" to the unit of each text line.
func printed(out []byte) map[string]string {
	units := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 4 && !strings.HasPrefix(f[0], "#") {
			units[f[0]+" "+f[1]] = f[3]
		}
	}
	return units
}

// TestSmoke runs every workload at a small size, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit,
// that every answer was correct, and that the trace files parse. It makes
// no timing assertions.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, tc := range []struct {
		name    string
		traced  bool
		metrics []specMetric
	}{
		{"end-to-end", false, spec.EndToEnd},
		{"traced", true, spec.PerLayer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smokeConfig()
			if tc.traced {
				c.traceDir = t.TempDir()
			}
			var out bytes.Buffer
			reports, err := benchmark(context.Background(), c, &out)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(workloadNames) {
				t.Fatalf("%d reports, want %d", len(reports), len(workloadNames))
			}
			units := printed(out.Bytes())
			for _, r := range reports {
				if !r.Correct || r.Failed != 0 {
					t.Errorf("%s: %d of %d failed: %v", r.Workload, r.Failed, r.Attempted, r.Problems)
				}
				if got := units[r.Workload+" error_rate"]; got == "" || r.Metrics["error_rate"].Value != 0 {
					t.Errorf("%s: error_rate %v (printed %t), want 0", r.Workload, r.Metrics["error_rate"].Value, got != "")
				}
				for _, m := range tc.metrics {
					if got := units[r.Workload+" "+m.Name]; got != m.Unit {
						t.Errorf("%s %s printed with unit %q, want %q", r.Workload, m.Name, got, m.Unit)
					}
				}
			}
			if _, err := resultOf(reports, tc.traced); err != nil {
				t.Error(err)
			}
			if !tc.traced {
				return
			}
			for _, w := range workloadNames {
				b, err := os.ReadFile(filepath.Join(c.traceDir, w+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var chrome struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("%s trace: %d events, err %v", w, len(chrome.TraceEvents), err)
				}
			}
		})
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the regression bounds are checked
// with: quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
