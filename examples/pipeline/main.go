// Pipeline: the production workflow for keeping a database clean.
//
// A downstream user of DISTINCT rarely asks about one name; they want the
// whole database swept for homonyms, a threshold chosen without manual
// labels, and the trained model persisted so tomorrow's refresh skips
// retraining. This example runs that workflow end to end:
//
//  1. generate (or load) a bibliographic database,
//  2. train join-path weights on automatic rare-name examples,
//  3. auto-tune min-sim on synthetic rare-name pairs (no labels),
//  4. sweep every name with enough references and report the splits,
//  5. save the model, reload it into a fresh engine, and verify the
//     transferred engine reproduces a grouping exactly.
//
// Run with: go run ./examples/pipeline
package main

import (
	"bytes"
	"fmt"
	"log"

	"distinct"
	"distinct/internal/dblp"
)

func main() {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 8
	cfg.AuthorsPerCommunity = 80
	world, err := dblp.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d papers, %d references\n", world.NumPapers(), world.NumReferences())

	open := func() *distinct.Engine {
		eng, err := distinct.Open(world.DB, distinct.Config{
			RefRelation: "Publish",
			RefAttr:     "author",
			SkipExpand:  []string{"Publications.title"},
			Train: distinct.TrainOptions{
				NumPositive: 500, NumNegative: 500, Seed: 1,
				Exclude: world.AmbiguousNames(),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}

	// 1-2: train.
	eng := open()
	rep, err := eng.Train()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained in %v (SVM accuracy %.3f/%.3f)\n",
		rep.Timings.TotalTrain, rep.ResemAccuracy, rep.WalkAccuracy)

	// 3: choose min-sim with zero labels.
	tune, err := eng.TuneMinSim(nil, 30, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-tuned min-sim = %g (f=%.3f on %d synthetic rare-name pairs)\n",
		tune.MinSim, tune.F1, tune.Cases)

	// 4: sweep the whole database.
	batch, err := eng.DisambiguateAll(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswept %d names with >=10 references; %d look like homonyms:\n",
		batch.NamesExamined, len(batch.Split))
	shown := batch.Split
	if len(shown) > 8 {
		shown = shown[:8]
	}
	for _, s := range shown {
		fmt.Printf("  %-24s -> %d inferred authors\n", s.Name, len(s.Groups))
	}
	if len(batch.Split) > len(shown) {
		fmt.Printf("  ... and %d more\n", len(batch.Split)-len(shown))
	}

	// 5: persist the model and verify the transfer.
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel serialized: %d bytes\n", buf.Len())
	model, err := distinct.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fresh := open() // uniform weights, never trained
	if err := fresh.ApplyModel(model); err != nil {
		log.Fatal(err)
	}
	if err := fresh.SetMinSim(tune.MinSim); err != nil {
		log.Fatal(err)
	}

	name := world.AmbiguousNames()[0]
	a, err := eng.Disambiguate(name)
	if err != nil {
		log.Fatal(err)
	}
	b, err := fresh.Disambiguate(name)
	if err != nil {
		log.Fatal(err)
	}
	if len(a) != len(b) {
		log.Fatalf("transfer mismatch: %d vs %d groups", len(a), len(b))
	}
	fmt.Printf("model transfer verified: %q resolves to %d groups on both engines\n", name, len(a))
}
