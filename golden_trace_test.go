// Golden trace regression test: the span tree shape and the decision-level
// event sequence (merges, cuts, learned path weights, sampled pair indices)
// of the fixed benchmark world must be reproduced exactly — with timestamps,
// span ids, and wall-clock attributes normalized out — whatever the worker
// count. CI runs this at GOMAXPROCS=1 and under -race; both must match the
// same committed file. Intentional changes regenerate it with
//
//	go test -run TestGoldenTrace -update
//
// The same run also asserts the Chrome trace-event export structurally:
// valid trace-event JSON, one "merge" instant per clustering merge, cluster
// ids and composite similarity attached to each.
package distinct_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"distinct"
	"distinct/internal/dblp"
	"distinct/internal/obs/trace"
)

const goldenTracePath = "testdata/golden_trace.json"

// tracedRun executes the golden pipeline (the goldenRun world) with tracing
// on and returns the finished trace plus the metrics registry.
func tracedRun(t *testing.T, minRefs int) (*distinct.Trace, *distinct.Registry) {
	t.Helper()
	cfg := dblp.DefaultConfig()
	cfg.Communities = 6
	cfg.AuthorsPerCommunity = 50
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := distinct.NewMetrics()
	tr := distinct.NewTrace(64)
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Train: distinct.TrainOptions{
			NumPositive: 300, NumNegative: 300,
			Exclude: w.AmbiguousNames(), Seed: 1,
		},
		Metrics: reg,
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.DisambiguateAll(minRefs)
	if err != nil {
		t.Fatal(err)
	}
	// The clean path must be incident-free; countIncidentEvents asserts the
	// same about the trace the run produced.
	if len(res.Incidents) != 0 {
		t.Fatalf("clean run produced %d incidents, first: %+v", len(res.Incidents), res.Incidents[0])
	}
	tr.Finish()
	return tr, reg
}

// countIncidentEvents walks a normalized tree counting "incident" events.
func countIncidentEvents(n *normSpan) int {
	total := 0
	for _, ev := range n.Events {
		if ev == "incident" || strings.HasPrefix(ev, "incident ") {
			total++
		}
	}
	for _, c := range n.Children {
		total += countIncidentEvents(c)
	}
	return total
}

// normSpan is the committed shape of one span: name, stable attributes, the
// decision events, and name-sorted children. Timestamps, ids, and durations
// are gone; what remains must be bit-identical run to run.
type normSpan struct {
	Name     string      `json:"name"`
	Attrs    []string    `json:"attrs,omitempty"`
	Events   []string    `json:"events,omitempty"`
	Children []*normSpan `json:"children,omitempty"`
}

// normValue formats attribute values the way trace.Attr does, so the golden
// file is independent of encoding/json float rendering.
func normValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return fmt.Sprint(x)
	}
}

// normAttrs renders an attribute map as sorted key=value strings.
func normAttrs(attrs map[string]any) []string {
	out := make([]string, 0, len(attrs))
	for k, v := range attrs {
		out = append(out, k+"="+normValue(v))
	}
	sort.Strings(out)
	return out
}

// normEvent renders one event. Decision events (merge, cut, path_weight)
// keep every attribute; sampled pair events keep only the pair indices —
// which lock the deterministic sampling policy — because their similarity
// breakdowns are bulky and already covered by the merge sequence they feed.
func normEvent(ev trace.EventNode) string {
	switch ev.Name {
	case "merge", "cut", "path_weight":
		return ev.Name + " " + strings.Join(normAttrs(ev.Attrs), " ")
	case "pair":
		return fmt.Sprintf("pair i=%v j=%v", normValue(ev.Attrs["i"]), normValue(ev.Attrs["j"]))
	default:
		return ev.Name
	}
}

// normalize maps a SpanNode subtree to its committed shape. Children are
// stable-sorted by name: batch per-name spans finish in worker order, and
// the trace records them in completion order, which is the one thing about
// the tree that legitimately varies with GOMAXPROCS.
func normalize(n *trace.SpanNode) *normSpan {
	out := &normSpan{Name: n.Name, Attrs: normAttrs(n.Attrs)}
	for _, ev := range n.Events {
		out.Events = append(out.Events, normEvent(ev))
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, normalize(c))
	}
	sort.SliceStable(out.Children, func(i, j int) bool {
		return out.Children[i].Name < out.Children[j].Name
	})
	return out
}

func TestGoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	// minRefs 120 keeps the committed file reviewable: six ambiguous names,
	// every one still exercising similarities → cluster spans.
	tr, _ := tracedRun(t, 120)
	got := normalize(tr.Tree())
	if n := countIncidentEvents(got); n != 0 {
		t.Errorf("clean run recorded %d incident trace events, want 0", n)
	}

	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace rewritten: %s (%d bytes)", goldenTracePath, len(b))
		return
	}

	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("reading golden trace (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b, want) {
		// Point at the first diverging line rather than dumping both trees.
		gotLines, wantLines := strings.Split(string(b), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("trace diverges from golden at line %d:\n got %s\nwant %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("trace length differs from golden: got %d lines, want %d",
			len(gotLines), len(wantLines))
	}
}

// chromeTrace mirrors the trace-event JSON container format.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestChromeTraceStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	tr, reg := tracedRun(t, 120)

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", ct.DisplayTimeUnit)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	var spans, merges int
	for i, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M": // process metadata
			if i != 0 {
				t.Errorf("metadata event at index %d, want 0", i)
			}
		case "X": // complete span
			spans++
			if ev.Name == "" || ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("malformed span event %+v", ev)
			}
		case "i": // instant
			if ev.Ts < 0 {
				t.Errorf("instant %q has negative timestamp", ev.Name)
			}
			if ev.Name != "merge" {
				continue
			}
			merges++
			for _, key := range []string{"a", "b", "new", "sim"} {
				if _, ok := ev.Args[key]; !ok {
					t.Fatalf("merge event missing %q arg: %v", key, ev.Args)
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if spans == 0 {
		t.Error("chrome export has no span events")
	}
	// Every clustering merge must surface as exactly one merge instant.
	wantMerges := reg.Snapshot().Counters["cluster.merges"]
	if int64(merges) != wantMerges {
		t.Errorf("chrome export has %d merge events, cluster.merges counter says %d",
			merges, wantMerges)
	}
}
