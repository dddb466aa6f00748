// Command dblpgen generates a synthetic DBLP-like bibliographic world with
// ground-truth author identities and saves it as JSON for later analysis
// with cmd/distinct or cmd/experiments.
//
// Usage:
//
//	dblpgen -out world.json [-seed N] [-communities N] [-authors N]
//	        [-papers F] [-stats] [-tsv dir]
package main

import (
	"flag"
	"fmt"
	"os"

	"distinct/internal/dataio"
	"distinct/internal/dblp"
)

func main() {
	var (
		out     = flag.String("out", "world.json", "output file")
		seed    = flag.Int64("seed", 1, "generation seed")
		comms   = flag.Int("communities", 0, "override number of research communities")
		authors = flag.Int("authors", 0, "override authors per community")
		papers  = flag.Float64("papers", 0, "override mean papers per author")
		stats   = flag.Bool("stats", false, "print per-relation sizes and the ambiguous-name profile")
		tsvDir  = flag.String("tsv", "", "also export the database into this directory as schema.json plus one <Relation>.tsv per relation (load with cmd/distinct -schema dir/schema.json)")
	)
	flag.Parse()

	cfg := dblp.DefaultConfig()
	cfg.Seed = *seed
	if *comms > 0 {
		cfg.Communities = *comms
	}
	if *authors > 0 {
		cfg.AuthorsPerCommunity = *authors
	}
	if *papers > 0 {
		cfg.PapersPerAuthor = *papers
	}

	world, err := dblp.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	if err := dataio.SaveWorldFile(world, *out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d identities, %d papers, %d references\n",
		*out, len(world.Identities), world.NumPapers(), world.NumReferences())

	if *tsvDir != "" {
		if err := dataio.SaveExport(world.DB, *tsvDir); err != nil {
			fatal(err)
		}
		fmt.Printf("TSV export written to %s\n", *tsvDir)
	}

	if *stats {
		fmt.Println()
		fmt.Print(world.DB.Stats())
		fmt.Println("ambiguous names:")
		for _, name := range world.AmbiguousNames() {
			fmt.Printf("  %-22s %2d authors %4d refs\n",
				name, len(world.GoldClusters(name)), len(world.Refs(name)))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dblpgen:", err)
	os.Exit(1)
}
