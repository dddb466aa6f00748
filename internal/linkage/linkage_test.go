package linkage

import (
	"context"
	"math"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/strsim"
	"distinct/internal/trainset"
)

func TestJoinFindsSpellingVariants(t *testing.T) {
	names := []string{
		"Wei Wang", "Wei K. Wang", "Wei Wang", // duplicate entry tolerated
		"Joseph Hellerstein", "Joseph M. Hellerstein",
		"Rakesh Kumar", "Completely Different",
	}
	pairs := Join(names, Options{MinStringSim: 0.5})
	has := func(a, b string) bool {
		for _, p := range pairs {
			if (p.A == a && p.B == b) || (p.A == b && p.B == a) {
				return true
			}
		}
		return false
	}
	if !has("Wei Wang", "Wei K. Wang") {
		t.Error("missed Wei Wang / Wei K. Wang")
	}
	if !has("Joseph Hellerstein", "Joseph M. Hellerstein") {
		t.Error("missed the Hellerstein variants")
	}
	if has("Rakesh Kumar", "Completely Different") {
		t.Error("joined unrelated names")
	}
	// Sorted by string similarity (no verification here), and the
	// duplicate "Wei Wang" entry never pairs with itself.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].StringSim > pairs[i-1].StringSim {
			t.Error("pairs not sorted")
		}
	}
	if has("Wei Wang", "Wei Wang") {
		t.Error("duplicate entry paired with itself")
	}
}

// TestJoinMatchesBruteForce validates the count filter: the indexed join
// must return exactly the pairs a quadratic scan finds.
func TestJoinMatchesBruteForce(t *testing.T) {
	names := []string{
		"alice smith", "alicia smith", "alice smyth", "bob jones",
		"bob james", "carol brown", "caroline brown", "dave", "dav",
		"wei wang", "wei k. wang", "w. wang",
	}
	threshold := 0.45
	got := Join(names, Options{MinStringSim: threshold})
	type key [2]string
	gotSet := make(map[key]float64)
	for _, p := range got {
		gotSet[key{p.A, p.B}] = p.StringSim
	}
	count := 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			s := strsim.QGramJaccard(names[i], names[j], 3)
			if s >= threshold {
				count++
				ks := key{names[i], names[j]}
				v, ok := gotSet[ks]
				if !ok {
					t.Errorf("brute force found (%q,%q) sim %v, join missed it", names[i], names[j], s)
					continue
				}
				if math.Abs(v-s) > 1e-12 {
					t.Errorf("similarity mismatch on (%q,%q)", names[i], names[j])
				}
			}
		}
	}
	if count != len(got) {
		t.Errorf("join returned %d pairs, brute force %d", len(got), count)
	}
}

func TestJoinOptions(t *testing.T) {
	names := []string{"aaa bbb", "aaa bbc", "aaa bbd", "zzz yyy"}
	pairs := Join(names, Options{MinStringSim: 0.4, MaxPairs: 2})
	if len(pairs) != 2 {
		t.Errorf("MaxPairs ignored: %d pairs", len(pairs))
	}
	// Verification ordering: a verifier preferring the lexicographically
	// last pair must promote it.
	pairs = Join(names, Options{MinStringSim: 0.4, Verify: func(a, b string) float64 {
		if b == "aaa bbd" {
			return 1
		}
		return 0
	}})
	if len(pairs) == 0 || pairs[0].RelationalSim != 1 {
		t.Errorf("verification did not reorder: %+v", pairs)
	}
}

func TestFindDuplicateNamesOnWorld(t *testing.T) {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 3
	cfg.AuthorsPerCommunity = 30
	cfg.PapersPerAuthor = 2
	cfg.Ambiguous = nil
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := FindDuplicateNames(w.DB, dblp.ReferenceRelation, dblp.ReferenceAttr, Options{MinStringSim: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	// The generator produces initials variants ("X Y" / "X K. Y"), so some
	// candidates must surface.
	if len(pairs) == 0 {
		t.Error("no candidate duplicate names found in a world with initial variants")
	}
	for _, p := range pairs {
		if p.A == p.B {
			t.Error("self pair returned")
		}
		if p.StringSim < 0.55 {
			t.Errorf("pair below threshold: %+v", p)
		}
	}
	// Errors.
	if _, err := FindDuplicateNames(w.DB, "Nope", "author", Options{}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := FindDuplicateNames(w.DB, "Publications", "title", Options{}); err == nil {
		t.Error("non-FK attribute accepted")
	}
}

// TestRelationalVerificationSeparates: in the generated world, two authors
// with similar names are genuinely different people, so their relational
// affinity should be far below the affinity of a name with itself split in
// half (a same-person proxy).
func TestRelationalVerificationSeparates(t *testing.T) {
	cfg := dblp.DefaultConfig()
	cfg.Communities = 3
	cfg.AuthorsPerCommunity = 40
	cfg.PapersPerAuthor = 3
	cfg.Ambiguous = nil
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngineCtx(context.Background(), w.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Measure:     cluster.Combined,
		Supervised:  true,
		Train:       trainset.Options{NumPositive: 100, NumNegative: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Learned weights matter here: uniform weights inflate the affinity of
	// unrelated people through shared years and publishers.
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	pairs, err := FindDuplicateNames(w.DB, dblp.ReferenceRelation, dblp.ReferenceAttr, Options{
		MinStringSim: 0.55,
		Verify:       e.NameAffinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Skip("no string-similar name pairs in this world")
	}
	// Same-person baseline: the affinity between the two halves of one
	// author's own reference set. Different-person candidates (which all of
	// these are — the generator never reuses a name with an initial) must
	// score well below it on average.
	var baseSum float64
	baseN := 0
	for _, id := range w.DB.Relation("Authors").TupleIDs() {
		name := w.DB.Tuple(id).Val("author")
		refs := e.RefsForName(name)
		if len(refs) < 4 {
			continue
		}
		m := e.Similarities(refs)
		half := len(refs) / 2
		var sumResem, wAB, wBA float64
		for i := 0; i < half; i++ {
			for _, c := range m.Row(i)[half-i-1:] {
				sumResem += c.R
				wAB += c.WAB
				wBA += c.WBA
			}
		}
		nb := float64(len(refs) - half)
		avg := sumResem / (float64(half) * nb)
		coll := (wAB/float64(half) + wBA/nb) / 2
		baseSum += math.Sqrt(avg * coll)
		baseN++
		if baseN >= 8 {
			break
		}
	}
	if baseN == 0 {
		t.Skip("no author with 4+ refs")
	}
	baseline := baseSum / float64(baseN)
	var candSum float64
	for _, p := range pairs {
		candSum += p.RelationalSim
	}
	candidate := candSum / float64(len(pairs))
	t.Logf("same-person baseline affinity %.4f, different-person candidates %.4f", baseline, candidate)
	if candidate*2 > baseline {
		t.Errorf("relational verification cannot separate: candidates %.4f vs baseline %.4f", candidate, baseline)
	}
	// Affinity of a name against itself must dwarf cross-name affinities.
	some := w.DB.Tuple(w.DB.Relation("Authors").TupleIDs()[0]).Val("author")
	if e.NameAffinity(some, some) <= 0 {
		t.Error("self affinity not positive")
	}
	if e.NameAffinity(some, "No Such Name") != 0 {
		t.Error("affinity with missing name not zero")
	}
}
