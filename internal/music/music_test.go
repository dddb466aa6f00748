package music

import (
	"context"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/eval"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

func testCatalog(t testing.TB) *Catalog {
	t.Helper()
	c, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Genres = 0 },
		func(c *Config) { c.ArtistsPerGenre = 0 },
		func(c *Config) { c.LabelsPerGenre = 0 },
		func(c *Config) { c.AlbumsPerArtist = 1 },
		func(c *Config) { c.TracksPerAlbum = 1 },
		func(c *Config) { c.SignatureProb = 2 },
		func(c *Config) { c.YearTo = c.YearFrom - 1 },
		func(c *Config) { c.Ambiguous = []AmbiguousTitle{{Title: ""}} },
		func(c *Config) { c.Ambiguous = []AmbiguousTitle{{Title: "X", AppearancesPerSong: []int{0}}} },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateGroundTruth(t *testing.T) {
	c := testCatalog(t)
	if c.NumTracks() == 0 {
		t.Fatal("no tracks")
	}
	for _, amb := range c.Config.Ambiguous {
		refs := c.Refs(amb.Title)
		if len(refs) != amb.NumRefs() {
			t.Errorf("%s: %d refs, want %d", amb.Title, len(refs), amb.NumRefs())
		}
		gold := c.GoldClusters(amb.Title)
		if len(gold) != amb.NumSongs() {
			t.Errorf("%s: %d gold songs, want %d", amb.Title, len(gold), amb.NumSongs())
		}
		// Every reference of one song sits on an album of the song's artist.
		for gi, clusterRefs := range gold {
			id := c.RefSong[clusterRefs[0]]
			for _, ref := range clusterRefs {
				album := c.DB.Tuple(ref).Val("album")
				at := c.DB.LookupKey("Albums", album)
				if got := c.DB.Tuple(at).Val("artist"); got != c.SongArtist[id] {
					t.Fatalf("%s song %d: ref on album by %q, song artist %q", amb.Title, gi, got, c.SongArtist[id])
				}
			}
		}
	}
	// Distinct songs of one title belong to distinct artists.
	for _, amb := range c.Config.Ambiguous {
		seen := map[string]bool{}
		for _, g := range c.GoldClusters(amb.Title) {
			artist := c.SongArtist[c.RefSong[g[0]]]
			if seen[artist] {
				t.Errorf("%s: two songs share artist %q", amb.Title, artist)
			}
			seen[artist] = true
		}
	}
	// Referential integrity.
	for _, rs := range c.DB.Schema.Relations() {
		rel := c.DB.Relation(rs.Name)
		for _, fi := range rs.ForeignKeys() {
			for _, id := range rel.TupleIDs() {
				v := c.DB.Tuple(id).Vals[fi]
				if c.DB.LookupKey(rs.Attrs[fi].FK, v) == reldb.InvalidTuple {
					t.Fatalf("dangling %s FK %q", rs.Name, v)
				}
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := testCatalog(t)
	b := testCatalog(t)
	if a.NumTracks() != b.NumTracks() {
		t.Fatal("generation not deterministic")
	}
}

// TestEngineOnCatalog is the cross-domain check: the same engine that
// disambiguates DBLP authors splits the catalog's shared titles, trained
// on the catalog's own rare titles.
func TestEngineOnCatalog(t *testing.T) {
	c := testCatalog(t)
	e, err := core.NewEngineCtx(context.Background(), c.DB, core.Config{
		RefRelation: ReferenceRelation,
		RefAttr:     ReferenceAttr,
		Supervised:  true,
		Measure:     cluster.Combined,
		MinSim:      0.02,
		Train: trainset.Options{
			NumPositive: 300, NumNegative: 300, Seed: 1,
			MaxFirstFreq: 8, MaxLastFreq: 8,
			Exclude: c.AmbiguousTitles(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ms []eval.Metrics
	for _, title := range c.AmbiguousTitles() {
		refs := e.MapRefs(c.Refs(title))
		pred, err := e.DisambiguateRefsCtx(context.Background(), refs)
		if err != nil {
			t.Fatal(err)
		}
		var gold eval.Clustering
		for _, g := range c.GoldClusters(title) {
			gold = append(gold, e.MapRefs(g))
		}
		m, err := eval.Evaluate(eval.Clustering(pred), gold)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %s", title, m)
		ms = append(ms, m)
	}
	avg := eval.Average(ms)
	if avg.F1 < 0.8 {
		t.Errorf("cross-domain average f-measure %v too low", avg.F1)
	}
}
