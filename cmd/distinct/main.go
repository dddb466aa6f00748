// Command distinct disambiguates the references to one name in a
// relational database: it trains DISTINCT's join-path weights on
// automatically constructed examples, clusters the name's references, and
// prints the groups with the objects they occur in (papers and titles on
// DBLP) — scored against the ground truth when the database is a saved
// world (see cmd/dblpgen) and the name one of its injected ambiguous names.
//
// Usage:
//
//	distinct -world world.json -name "Wei Wang" [-minsim X] [-unsupervised]
//	         [-dblpxml dblp.xml]   load a real DBLP XML export instead
//	         [-schema schema.json] load any schema plus one <Relation>.tsv
//	                               per relation beside it (dblpgen -tsv)
//	         [-refrel R -refattr A] where the names are (default Publish.author)
//	         [-skip R.a,...]       attributes left unexpanded
//	                               (default Publications.title; '' for none)
//	         [-measure combined|resemblance|walk] [-weights]
//	         [-batch N]            disambiguate every name with >= N refs
//	         [-timeout D]          whole-run budget (context deadline)
//	         [-name-timeout D]     per-name budget in -batch (degraded retry,
//	                               then a recorded incident)
//	         [-tune]               auto-tune min-sim on rare-name pairs
//	         [-mergeprofile]       print the merge profile of -name
//	         [-savemodel model.json] [-loadmodel model.json]
//	         [-metrics out.json]   dump the observability snapshot at exit
//	         [-obs addr]           serve /metrics, /debug/vars, pprof live
//	         [-trace out.json]     write a Chrome trace (chrome://tracing)
//	         [-tracetree out.json] write the span tree for cmd/tracereport
//	         [-tracesample N]      pair-provenance sampling period (default 64)
//	         [-v]                  log progress to stderr (structured, span-stamped)
//
// SIGINT/SIGTERM cancel the run's context: in-flight work stops at the next
// chunk boundary, trace and metrics artifacts still flush, a partial batch
// result (with its incident summary) is printed, and the process exits
// nonzero instead of dying mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"distinct"
	"distinct/internal/dataio"
	"distinct/internal/dblp"
	"distinct/internal/dblpxml"
	"distinct/internal/linkage"
	"distinct/internal/obs/trace"
)

func main() {
	// All artifact flushing (metrics, traces, server shutdown) happens in
	// run's defers, so an error path cannot skip them the way os.Exit would.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distinct:", err)
		os.Exit(1)
	}
}

func run() error {
	var src source
	flag.StringVar(&src.world, "world", "world.json", "world file written by dblpgen")
	flag.StringVar(&src.dblpXML, "dblpxml", "", "load a DBLP XML export instead of a world file (no ground truth)")
	flag.IntVar(&src.prune, "prune", 3, "with -dblpxml: drop authors with fewer references (paper: authors with <=2 papers removed); 1 disables")
	flag.StringVar(&src.schema, "schema", "", "load this JSON schema document and one <Relation>.tsv per relation from its directory instead of a world file (no ground truth)")
	flag.StringVar(&src.refRel, "refrel", "Publish", "relation holding the references")
	flag.StringVar(&src.refAttr, "refattr", "author", "foreign-key attribute of -refrel holding the shared names")
	flag.StringVar(&src.skip, "skip", "Publications.title", "comma-separated Relation.attr list left unexpanded ('' for none)")
	var (
		name         = flag.String("name", "Wei Wang", "name to disambiguate")
		minSim       = flag.Float64("minsim", 0, "clustering threshold (0 = default)")
		unsupervised = flag.Bool("unsupervised", false, "skip SVM weight learning")
		measureName  = flag.String("measure", "combined", "cluster measure: combined, resemblance, walk")
		showWeights  = flag.Bool("weights", false, "print the learned join-path weights")
		trainN       = flag.Int("train", 1000, "training pairs per class")
		seed         = flag.Int64("seed", 1, "training-set sampling seed")
		batch        = flag.Int("batch", 0, "disambiguate every name with at least this many references")
		timeout      = flag.Duration("timeout", 0, "whole-run budget; 0 disables (SIGINT/SIGTERM always cancel)")
		nameTimeout  = flag.Duration("name-timeout", 0, "with -batch: per-name budget (over-budget names degrade, then become incidents); 0 disables")
		tune         = flag.Bool("tune", false, "auto-tune min-sim on synthetic rare-name pairs")
		mergeProfile = flag.Bool("mergeprofile", false, "print the merge profile of -name (helps choose min-sim)")
		explain      = flag.Bool("explain", false, "explain the similarity of the first two references of -name")
		dupNames     = flag.Int("dupnames", 0, "find the top-N differently written names that may denote one object (record linkage)")
		saveModel    = flag.String("savemodel", "", "write the trained weights to this file")
		loadModel    = flag.String("loadmodel", "", "load weights from this file instead of training")
		metricsOut   = flag.String("metrics", "", "write the observability snapshot (JSON) to this file at exit")
		obsAddr      = flag.String("obs", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")
		traceOut     = flag.String("trace", "", "write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto) to this file at exit")
		traceTree    = flag.String("tracetree", "", "write the run's span tree (JSON, input of cmd/tracereport) to this file at exit")
		traceSample  = flag.Int("tracesample", 64, "with -trace/-tracetree: record an explanation for every Nth reference pair (0 disables pair provenance)")
		verbose      = flag.Bool("v", false, "log progress to stderr (structured, span-stamped)")
	)
	flag.Parse()

	// The run context: SIGINT/SIGTERM cancel it, -timeout bounds it. Every
	// pipeline call below goes through the ctx APIs, so cancellation stops
	// work at the next chunk boundary and unwinds through the deferred
	// artifact writers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Progress goes through a structured logger, off by default; results
	// stay on stdout. With -v each record carries the id of the trace span
	// it belongs to (span=-1 when tracing is off).
	var logW *os.File
	if *verbose {
		logW = os.Stderr
	}
	lg := trace.NewLogger(logW, slog.LevelInfo)

	// Observability is opt-in: either flag creates the registry the whole
	// pipeline reports into; neither means the nil no-cost registry.
	var reg *distinct.Registry
	if *metricsOut != "" || *obsAddr != "" {
		reg = distinct.NewMetrics()
	}
	if *obsAddr != "" {
		srv, err := distinct.ServeMetrics(*obsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	if *metricsOut != "" {
		defer func() {
			if err := reg.WriteFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "distinct: writing metrics:", err)
				return
			}
			lg.Info("metrics snapshot written", "path", *metricsOut)
		}()
	}

	// Tracing is likewise opt-in; the trace's exports are written at exit,
	// after the deferred root-span Finish — including when the run was
	// cancelled, so an aborted run still leaves inspectable artifacts.
	var tr *distinct.Trace
	if *traceOut != "" || *traceTree != "" {
		tr = distinct.NewTrace(*traceSample)
		lg = trace.WithSpan(lg, tr.Root())
		defer func() {
			tr.Finish()
			if *traceOut != "" {
				if err := tr.WriteChromeFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "distinct: writing trace:", err)
				} else {
					lg.Info("chrome trace written", "path", *traceOut)
				}
			}
			if *traceTree != "" {
				if err := tr.WriteFile(*traceTree); err != nil {
					fmt.Fprintln(os.Stderr, "distinct: writing trace tree:", err)
				} else {
					lg.Info("trace tree written", "path", *traceTree)
				}
			}
		}()
	}

	var measure distinct.Measure
	switch *measureName {
	case "combined":
		measure = distinct.Combined
	case "resemblance":
		measure = distinct.ResemblanceOnly
	case "walk":
		measure = distinct.RandomWalkOnly
	default:
		return fmt.Errorf("unknown measure %q", *measureName)
	}

	in, err := src.load(lg)
	if err != nil {
		return err
	}
	eng, err := distinct.OpenCtx(ctx, in.db, distinct.Config{
		RefRelation:  in.refRel,
		RefAttr:      in.refAttr,
		SkipExpand:   in.skip,
		Unsupervised: *unsupervised,
		Measure:      measure,
		MinSim:       *minSim,
		Train: distinct.TrainOptions{
			NumPositive: *trainN, NumNegative: *trainN,
			Exclude: in.ambiguous, Seed: *seed,
		},
		Metrics: reg,
		Trace:   tr,
	})
	if err != nil {
		return err
	}

	switch {
	case *loadModel != "":
		f, err := os.Open(*loadModel)
		if err != nil {
			return err
		}
		m, err := distinct.LoadModel(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := eng.ApplyModel(m); err != nil {
			return err
		}
		lg.Info("model loaded", "path", *loadModel, "paths", len(m.Paths))
	case !*unsupervised:
		rep, err := eng.TrainCtx(ctx)
		if err != nil {
			return err
		}
		lg.Info("trained", "positive", rep.NumPositive, "negative", rep.NumNegative,
			"rare_names", rep.NumRareNames, "duration", rep.Timings.TotalTrain)
	}
	if *showWeights {
		paths := eng.Paths()
		resemW, walkW := eng.Weights()
		fmt.Println("join-path weights (resemblance / walk):")
		for i, p := range paths {
			if resemW[i] == 0 && walkW[i] == 0 {
				continue
			}
			fmt.Printf("  %-100s %.3f / %.3f\n", p.Describe(eng.DB().Schema), resemW[i], walkW[i])
		}
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return err
		}
		if err := eng.SaveModel(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		lg.Info("model written", "path", *saveModel)
	}
	if *tune {
		res, err := eng.TuneMinSim(nil, 50, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("tuned min-sim = %g (avg f-measure %.3f over %d synthetic cases)\n",
			res.MinSim, res.F1, res.Cases)
	}
	if *dupNames > 0 {
		pairs, err := linkage.FindDuplicateNames(in.db, in.refRel, in.refAttr, linkage.Options{
			MinStringSim: 0.55,
			MaxPairs:     *dupNames,
			Verify:       func(a, b string) float64 { return eng.Affinity(a, b) },
		})
		if err != nil {
			return err
		}
		fmt.Printf("\ntop %d candidate duplicate names (string join + relational verification):\n", len(pairs))
		fmt.Printf("%-26s %-26s %10s %12s\n", "name A", "name B", "string", "relational")
		for _, p := range pairs {
			fmt.Printf("%-26s %-26s %10.3f %12.5f\n", p.A, p.B, p.StringSim, p.RelationalSim)
		}
		return nil
	}

	if *batch > 0 {
		res, err := eng.DisambiguateAllCtx(ctx, distinct.BatchOptions{
			MinRefs:     *batch,
			NameTimeout: *nameTimeout,
		})
		if res != nil {
			fmt.Printf("\nbatch pass: %d names with >=%d refs examined, %d split\n",
				res.NamesExamined, *batch, len(res.Split))
			for _, sp := range res.Split {
				sizes := make([]int, len(sp.Groups))
				for i, g := range sp.Groups {
					sizes[i] = len(g)
				}
				fmt.Printf("  %-26s -> %d groups %v\n", sp.Name, len(sp.Groups), sizes)
			}
			printIncidents(res.Incidents)
		}
		if err != nil {
			// Cancelled or timed out mid-batch: the partial result above is
			// everything that completed; exit nonzero.
			return err
		}
		return nil
	}

	if *mergeProfile {
		refs := eng.Refs(*name)
		fmt.Printf("\nmerge profile of %q (%d refs; merges in order, similarity and sizes):\n", *name, len(refs))
		for i, st := range eng.MergeProfile(refs) {
			fmt.Printf("  %3d  sim=%-10.6f  %d + %d\n", i+1, st.Sim, st.SizeA, st.SizeB)
		}
	}

	if *explain {
		refs := eng.Refs(*name)
		if len(refs) >= 2 {
			fmt.Printf("\n%s", eng.Explain(refs[0], refs[1]).Format(eng.DB().Schema))
		}
	}

	groups, err := eng.DisambiguateCtx(ctx, *name)
	if err != nil {
		return err
	}
	fmt.Printf("\n%q: %d references in %d groups\n", *name, len(eng.Refs(*name)), len(groups))
	render := newRenderer(in.db.Schema, in.refRel, in.refAttr)
	for i, g := range groups {
		fmt.Printf("group %d (%d refs):\n", i+1, len(g))
		for _, r := range g {
			fmt.Printf("  %s\n", render(eng.DB(), r))
		}
	}

	// Score against ground truth when available.
	if slices.Contains(in.ambiguous, *name) {
		var gold [][]distinct.TupleID
		for _, c := range in.world.GoldClusters(*name) {
			gold = append(gold, eng.MapRefs(c))
		}
		m, err := distinct.Score(groups, gold)
		if err != nil {
			return err
		}
		fmt.Printf("\nground truth: %d authors; %s\n", len(gold), m)
	}
	return nil
}

// source names the database to load and where its references are; the
// flags fill it.
type source struct {
	world, dblpXML, schema string
	prune                  int
	refRel, refAttr, skip  string
}

// input is a loaded database: its references' relation and attribute, the
// attributes left unexpanded and, for a world file, the world whose ground
// truth scores the groups of its ambiguous names (kept out of training).
type input struct {
	db              *distinct.Database
	refRel, refAttr string
	skip, ambiguous []string
	world           *dblp.World
}

// load reads the database from -dblpxml, -schema or, when neither is
// given, -world.
func (s source) load(lg *slog.Logger) (input, error) {
	in := input{refRel: s.refRel, refAttr: s.refAttr}
	if s.skip != "" {
		in.skip = strings.Split(s.skip, ",")
	}
	var err error
	switch {
	case s.dblpXML != "" && s.schema != "":
		return in, fmt.Errorf("-dblpxml and -schema are two inputs; give one")
	case s.schema != "":
		if in.db, err = dataio.LoadExport(s.schema); err == nil {
			lg.Info("loaded schema and TSV", "path", s.schema, "tuples", in.db.NumTuples())
		}
	case s.dblpXML != "":
		in.db, err = loadDBLPXML(lg, s.dblpXML, s.prune)
	default:
		if in.world, err = dataio.LoadWorldFile(s.world); err == nil {
			in.db, in.ambiguous = in.world.DB, in.world.AmbiguousNames()
		}
	}
	return in, err
}

// loadDBLPXML reads a DBLP XML export and drops authors with fewer than
// prune references.
func loadDBLPXML(lg *slog.Logger, path string, prune int) (*distinct.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	db, stats, err := dblpxml.Load(f, dblpxml.Options{})
	f.Close()
	if err != nil {
		return nil, err
	}
	lg.Info("loaded DBLP XML", "path", path, "records", stats.Records,
		"authors", stats.Authors, "refs", stats.Refs, "skipped", stats.Skipped)
	if prune <= 1 {
		return db, nil
	}
	pruned, ps, err := dblpxml.Prune(db, prune)
	if err != nil {
		return nil, err
	}
	lg.Info("pruned sparse authors", "min_refs", prune,
		"authors_kept", ps.AuthorsKept, "refs_kept", ps.RefsKept)
	return pruned, nil
}

// newRenderer returns the printer of one reference under schema s: the key
// of the object it occurs in (the reference relation's first foreign key
// besides the name, the paper on DBLP) and that object's first plain
// attribute (the title). A reference relation without such a key prints
// its values.
func newRenderer(s *distinct.Schema, refRel, refAttr string) func(*distinct.Database, distinct.TupleID) string {
	for _, obj := range s.Relation(refRel).Attrs {
		if obj.FK == "" || obj.Name == refAttr {
			continue
		}
		var text string
		for _, a := range s.Relation(obj.FK).Attrs {
			if !a.Key && a.FK == "" {
				text = a.Name
				break
			}
		}
		return func(db *distinct.Database, r distinct.TupleID) string {
			key, title := db.Tuple(r).Val(obj.Name), ""
			if t := db.LookupKey(obj.FK, key); t != distinct.InvalidTuple {
				title = db.Tuple(t).Val(text)
			}
			return fmt.Sprintf("%-10s %s", key, title)
		}
	}
	return func(db *distinct.Database, r distinct.TupleID) string {
		return strings.Join(db.Tuple(r).Vals, "\t")
	}
}

// printIncidents renders a batch's incident summary: which names could not
// be fully processed, at which stage, why, and how long they ran.
func printIncidents(incidents []distinct.Incident) {
	if len(incidents) == 0 {
		return
	}
	fmt.Printf("\n%d incident(s):\n", len(incidents))
	fmt.Printf("  %-26s %-14s %-12s %10s  %s\n", "name", "stage", "reason", "elapsed", "error")
	for _, inc := range incidents {
		stage := inc.Stage
		if stage == "" {
			stage = "-"
		}
		fmt.Printf("  %-26s %-14s %-12s %10s  %s\n",
			inc.Name, stage, inc.Reason, inc.Elapsed.Round(time.Millisecond), inc.Err)
	}
}
