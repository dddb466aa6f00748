// Command experiments regenerates the evaluation of the DISTINCT paper
// (Yin, Han, Yu; ICDE 2007) on a generated DBLP-like world: Tables 1 and 2,
// Figures 4 and 5, the training timing, and the extra ablation comparison,
// plus experiments beyond the paper.
//
// Usage:
//
//	experiments [-all] [-table1] [-timing] [-table2] [-figure4] [-ablation]
//	            [-scaling] [-noise] [-expansion] [-citations] [-seeds]
//	            [-trainsize] [-music] [-figure5] [-name "Wei Wang"] [-dot out.dot]
//	            [-seed N] [-communities N] [-authors N] [-minsim X] [-train N]
//	            [-csv dir] [-timeout D] [-name-timeout D]
//	            [-metrics out.json] [-obs addr]
//	            [-trace out.json] [-tracetree out.json] [-tracesample N] [-v]
//
// Experiments print in the order above, whatever the order of the flags.
// -all selects -table1 -timing -table2 -figure4 -ablation -figure5; with no
// experiment flags, -all is assumed.
//
// SIGINT/SIGTERM cancel the run's context: in-flight pipeline work stops at
// the next chunk boundary, trace and metrics artifacts still flush, and the
// process exits nonzero instead of dying mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"

	"distinct/internal/dblp"
	"distinct/internal/experiments"
	"distinct/internal/music"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

func main() {
	// Artifact flushing (metrics, traces, server shutdown) happens in run's
	// defers, so an error path cannot skip them the way os.Exit would.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all = flag.Bool("all", false, "run the paper's experiments and the ablation (-table1 -timing -table2 -figure4 -ablation -figure5)")

		name    = flag.String("name", "Wei Wang", "name for -figure5")
		dotPath = flag.String("dot", "", "also write -figure5 output as Graphviz DOT to this file")

		seed    = flag.Int64("seed", 1, "world generation seed")
		comms   = flag.Int("communities", 0, "override number of research communities")
		authors = flag.Int("authors", 0, "override authors per community")
		minSim  = flag.Float64("minsim", 0, "override DISTINCT's min-sim threshold")
		trainN  = flag.Int("train", 0, "override training pairs per class (paper: 1000)")
		csvDir  = flag.String("csv", "", "also write each experiment's data as CSV into this directory")

		runTimeout  = flag.Duration("timeout", 0, "bound the whole run (e.g. 10m); expiry cancels in-flight work and exits nonzero")
		nameTimeout = flag.Duration("name-timeout", 0, "per-name budget for similarity computation (e.g. 30s)")

		metricsOut = flag.String("metrics", "", "write the observability snapshot (JSON) to this file at exit")
		obsAddr    = flag.String("obs", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")

		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto) to this file at exit")
		traceTree   = flag.String("tracetree", "", "write the run's span tree (JSON, input of cmd/tracereport) to this file at exit")
		traceSample = flag.Int("tracesample", 64, "with -trace/-tracetree: record an explanation for every Nth reference pair (0 disables pair provenance)")
		verbose     = flag.Bool("v", false, "log progress to stderr (structured, span-stamped)")
	)
	exps := experimentTable(name, dotPath, seed)
	on := make([]*bool, len(exps))
	for i, e := range exps {
		on[i] = flag.Bool(e.flag, false, e.usage)
	}
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context; pipeline stages observe it at
	// chunk boundaries, so the deferred artifact writers below still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}

	// Progress goes through a structured logger, off by default; the tables
	// and figures stay on stdout.
	var logW *os.File
	if *verbose {
		logW = os.Stderr
	}
	lg := trace.NewLogger(logW, slog.LevelInfo)

	var reg *obs.Registry
	if *metricsOut != "" || *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	if *metricsOut != "" {
		defer func() {
			if err := reg.WriteFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing metrics:", err)
				return
			}
			lg.Info("metrics snapshot written", "path", *metricsOut)
		}()
	}

	// Tracing is likewise opt-in; exports are written at exit, after the
	// deferred root-span Finish.
	var tr *trace.Trace
	if *traceOut != "" || *traceTree != "" {
		tr = trace.New(trace.Options{SamplePairEvery: *traceSample})
		lg = trace.WithSpan(lg, tr.Root())
		defer func() {
			tr.Finish()
			if *traceOut != "" {
				if err := tr.WriteChromeFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: writing trace:", err)
				} else {
					lg.Info("chrome trace written", "path", *traceOut)
				}
			}
			if *traceTree != "" {
				if err := tr.WriteFile(*traceTree); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: writing trace tree:", err)
				} else {
					lg.Info("trace tree written", "path", *traceTree)
				}
			}
		}()
	}

	// With no experiment flags, -all is assumed.
	*all = *all || !slices.ContainsFunc(on, func(b *bool) bool { return *b })
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	world := dblp.DefaultConfig()
	world.Seed = *seed
	if *comms > 0 {
		world.Communities = *comms
	}
	if *authors > 0 {
		world.AuthorsPerCommunity = *authors
	}
	opts := experiments.Options{
		World: world, MinSim: *minSim, Seed: *seed, Obs: reg, Trace: tr,
		Ctx: ctx, NameTimeout: *nameTimeout,
	}
	if *trainN > 0 {
		opts.TrainPositive, opts.TrainNegative = *trainN, *trainN
	}

	lg.Info("generating world", "seed", *seed)
	h, err := experiments.NewHarness(opts)
	if err != nil {
		return err
	}
	lg.Info("world generated",
		"identities", len(h.World.Identities),
		"papers", h.World.NumPapers(),
		"references", h.World.NumReferences())

	for i, e := range exps {
		if !*on[i] && !(*all && e.all) {
			continue
		}
		fmt.Printf("=== %s ===\n", e.heading())
		text, write, err := e.run(h)
		if err != nil {
			return err
		}
		fmt.Println(text)
		if err := writeCSV(*csvDir, e.csv, write); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes one experiment's CSV into dir, if a dir was requested
// and the experiment has one.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" || name == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("CSV written to %s\n\n", path)
	return nil
}

// experiment is one section of the output: the flag that selects it,
// whether -all includes it, its heading, its run and the CSV file, if any,
// that its run's writer fills under -csv.
type experiment struct {
	flag, usage string
	all         bool
	heading     func() string
	csv         string
	run         func(*experiments.Harness) (text string, csv func(io.Writer) error, err error)
}

// section adapts an experiment's result, its text rendering and its CSV
// writer (nil for none) to experiment.run.
func section[T any](result func(*experiments.Harness) (T, error), format func(T) string, writeCSV func(io.Writer, T) error) func(*experiments.Harness) (string, func(io.Writer) error, error) {
	return func(h *experiments.Harness) (string, func(io.Writer) error, error) {
		v, err := result(h)
		if err != nil {
			return "", nil, err
		}
		if writeCSV == nil {
			return format(v), nil, nil
		}
		return format(v), func(w io.Writer) error { return writeCSV(w, v) }, nil
	}
}

// title is a fixed heading.
func title(s string) func() string { return func() string { return s } }

// experimentTable lists every experiment in print order; name, dot and
// seed are the -name, -dot and -seed flags.
func experimentTable(name, dot *string, seed *int64) []experiment {
	type H = *experiments.Harness
	return []experiment{
		{flag: "table1", usage: "print Table 1 (the ambiguous-name dataset)", all: true,
			heading: title("Table 1: names corresponding to multiple authors"), csv: "table1.csv",
			run: section(func(h H) ([]experiments.Table1Row, error) { return h.Table1(), nil },
				experiments.FormatTable1, experiments.WriteTable1CSV)},
		{flag: "timing", usage: "print training timing (the paper's 62.1 s figure)", all: true,
			heading: title("Section 5 timing: training pipeline"),
			run:     section(H.Timing, experiments.FormatTiming, nil)},
		{flag: "table2", usage: "print Table 2 (DISTINCT accuracy per name)", all: true,
			heading: title("Table 2: accuracy for distinguishing references"), csv: "table2.csv",
			run: section(H.Table2, experiments.FormatTable2, experiments.WriteTable2CSV)},
		{flag: "figure4", usage: "print Figure 4 (six-variant comparison)", all: true,
			heading: title("Figure 4: accuracy and f-measure of six variants"), csv: "figure4.csv",
			run: section(H.Figure4, experiments.FormatFigure4, experiments.WriteFigure4CSV)},
		{flag: "ablation", usage: "print the cluster-measure ablation (beyond the paper)", all: true,
			heading: title("Ablation: cluster-measure design choices (beyond the paper)"), csv: "ablation.csv",
			run: section(H.Ablation, experiments.FormatFigure4, experiments.WriteFigure4CSV)},
		{flag: "scaling", usage: "print the scaling curve (beyond the paper)",
			heading: title("Scaling: pipeline cost vs database size (beyond the paper)"), csv: "scaling.csv",
			run: section(func(h H) ([]experiments.ScalingRow, error) { return h.Scaling(nil) },
				experiments.FormatScaling, experiments.WriteScalingCSV)},
		{flag: "noise", usage: "print the noise-sensitivity curve (beyond the paper)",
			heading: title("Noise sensitivity: quality vs cross-community collaboration (beyond the paper)"), csv: "noise.csv",
			run: section(func(h H) ([]experiments.NoiseRow, error) { return h.NoiseSensitivity(nil) },
				experiments.FormatNoise, experiments.WriteNoiseCSV)},
		{flag: "expansion", usage: "print the attribute-expansion ablation (Section 2.1)",
			heading: title("Attribute-expansion ablation (Section 2.1)"),
			run:     section(H.ExpansionAblation, experiments.FormatExpansion, nil)},
		{flag: "citations", usage: "print the citation-linkage experiment (beyond the paper)",
			heading: title("Citation linkage: quality vs citation density (beyond the paper)"),
			run: section(func(h H) ([]experiments.CitationRow, error) { return h.CitationLinkage(nil) },
				experiments.FormatCitations, nil)},
		{flag: "seeds", usage: "print the seed-robustness sweep (beyond the paper)",
			heading: title("Seed robustness: Table 2 averages across generated worlds (beyond the paper)"), csv: "seeds.csv",
			run: section(func(h H) (*experiments.SeedSummary, error) { return h.SeedSweep(nil) },
				experiments.FormatSeeds, experiments.WriteSeedsCSV)},
		{flag: "trainsize", usage: "print the training-set size sensitivity curve (beyond the paper)",
			heading: title("Training-set size sensitivity (beyond the paper)"), csv: "trainsize.csv",
			run: section(func(h H) ([]experiments.TrainSizeRow, error) { return h.TrainSizeSensitivity(nil) },
				experiments.FormatTrainSize, experiments.WriteTrainSizeCSV)},
		{flag: "music", usage: "print the cross-domain music-catalog evaluation (beyond the paper)",
			heading: title("Cross-domain: songs sharing a title, AllMusic-style (beyond the paper)"),
			run: section(func(H) (*experiments.MusicResult, error) {
				return experiments.MusicEvaluation(music.DefaultConfig(), *seed)
			}, experiments.FormatMusic, nil)},
		{flag: "figure5", usage: "print Figure 5 (reference groups of one name)", all: true,
			heading: func() string { return "Figure 5: groups of references of " + *name },
			run: func(h H) (string, func(io.Writer) error, error) {
				res, err := h.Figure5(*name)
				if err != nil {
					return "", nil, err
				}
				text := experiments.FormatFigure5(res)
				if *dot != "" {
					if err := os.WriteFile(*dot, []byte(experiments.DOTFigure5(res)), 0o644); err != nil {
						return "", nil, err
					}
					text += "\nDOT written to " + *dot
				}
				return text, nil, nil
			}},
	}
}
