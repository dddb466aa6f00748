package main

import (
	"bytes"
	"flag"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"distinct"
	"distinct/internal/dataio"
	"distinct/internal/dblp"
	"distinct/internal/obs/trace"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current output")

// runMainEnv, when set, makes the test binary run the command itself, so
// the tests below can drive main with real flags in a child process.
const runMainEnv = "DISTINCT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	code := m.Run()
	if fixture.dir != "" {
		os.RemoveAll(fixture.dir)
	}
	os.Exit(code)
}

// fixture is the small world CI runs the command on (dblpgen -communities
// 6 -authors 50 -tsv tsv), written once: w.json and the export in tsv/.
var fixture struct {
	once  sync.Once
	dir   string
	world *dblp.World
	err   error
}

// fixtureDir returns the directory holding the fixture's files.
func fixtureDir(t *testing.T) string {
	t.Helper()
	fixture.once.Do(func() {
		cfg := dblp.DefaultConfig()
		cfg.Communities, cfg.AuthorsPerCommunity = 6, 50
		if fixture.world, fixture.err = dblp.Generate(cfg); fixture.err != nil {
			return
		}
		if fixture.dir, fixture.err = os.MkdirTemp("", "distinct-cmd"); fixture.err != nil {
			return
		}
		if fixture.err = dataio.SaveWorldFile(fixture.world, filepath.Join(fixture.dir, "w.json")); fixture.err != nil {
			return
		}
		fixture.err = dataio.SaveExport(fixture.world.DB, filepath.Join(fixture.dir, "tsv"))
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.dir
}

// runCmd runs the command in dir with args and returns its stdout, stderr
// and exit error.
func runCmd(dir string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	return out, errBuf.Bytes(), err
}

// mustRun is runCmd that fails the test on a nonzero exit.
func mustRun(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	out, stderr, err := runCmd(dir, args...)
	if err != nil {
		t.Fatalf("distinct %q: %v\n%s", args, err, stderr)
	}
	return out
}

// checkGolden holds got byte for byte to testdata/<name>.golden; -update
// rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// pinned is one pinned run: its golden's name and the flags after the input's.
type pinned struct {
	name string
	args []string
}

// checkRuns runs each of runs in dir after the base flags and holds its
// stdout to testdata/<prefix>-<name>.golden. It returns the outputs by name.
func checkRuns(t *testing.T, dir, prefix string, base []string, runs []pinned) map[string][]byte {
	outs := make(map[string][]byte)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			out := mustRun(t, dir, append(base[:len(base):len(base)], r.args...)...)
			outs[r.name] = out
			checkGolden(t, prefix+"-"+r.name, out)
		})
	}
	return outs
}

// TestWorldGoldens runs the command on the world file once per feature
// flag and holds each stdout to its golden. A -savemodel run and a
// -loadmodel run of the saved weights must both print the -name golden.
func TestWorldGoldens(t *testing.T) {
	dir := fixtureDir(t)
	base := []string{"-world", "w.json", "-train", "300"}
	outs := checkRuns(t, dir, "world", base, []pinned{
		{"name", []string{"-name", "Wei Wang"}},
		{"batch", []string{"-batch", "20"}},
		{"tune", []string{"-tune"}},
		{"mergeprofile", []string{"-mergeprofile"}},
		{"explain", []string{"-explain"}},
		{"dupnames", []string{"-dupnames", "5"}},
		{"weights", []string{"-weights"}},
	})
	model := filepath.Join(t.TempDir(), "m.json")
	for _, args := range [][]string{{"-savemodel", model}, {"-loadmodel", model}} {
		if out := mustRun(t, dir, append(base, args...)...); !bytes.Equal(out, outs["name"]) {
			t.Errorf("distinct %q differs from the -name run:\n%s", args, out)
		}
	}
}

// TestSchemaGoldens runs the command on the schema + TSV export of the
// same world, in the export's directory, with -name, -batch, -tune and
// -dupnames.
func TestSchemaGoldens(t *testing.T) {
	checkRuns(t, filepath.Join(fixtureDir(t), "tsv"), "schema",
		[]string{"-schema", "schema.json", "-train", "500"}, []pinned{
			{"name", []string{"-name", "Wei Wang"}},
			{"batch", []string{"-batch", "20"}},
			{"tune", []string{"-tune"}},
			{"dupnames", []string{"-dupnames", "5"}},
		})
}

// TestLoadersAgree is the differential test across loaders: with one
// model, the world file and its schema + TSV export print the same groups
// for every ambiguous name (the world adds its ground-truth line) and the
// same -batch 2 sweep.
func TestLoadersAgree(t *testing.T) {
	dir := fixtureDir(t)
	model := filepath.Join(t.TempDir(), "m.json")
	mustRun(t, dir, "-world", "w.json", "-train", "300", "-savemodel", model, "-name", "Wei Wang")
	world := []string{"-world", "w.json", "-loadmodel", model}
	export := []string{"-schema", filepath.Join("tsv", "schema.json"), "-loadmodel", model}
	for _, name := range fixture.world.AmbiguousNames() {
		w := mustRun(t, dir, append(world, "-name", name)...)
		e := mustRun(t, dir, append(export, "-name", name)...)
		truth := bytes.LastIndex(w, []byte("\nground truth: "))
		if truth < 0 || !bytes.Equal(w[:truth], e) {
			t.Errorf("%s: -world printed\n%s\n-schema printed\n%s", name, w, e)
		}
	}
	w := mustRun(t, dir, append(world, "-batch", "2")...)
	if e := mustRun(t, dir, append(export, "-batch", "2")...); !bytes.Equal(w, e) {
		t.Errorf("-batch 2: -world printed\n%s\n-schema printed\n%s", w, e)
	}
}

// TestLoadersTrainAlike: the world file and its export, loaded by
// source.load, learn the same weights when training keeps the same names
// out (the world's ambiguous names, which only a world can name).
func TestLoadersTrainAlike(t *testing.T) {
	dir := fixtureDir(t)
	lg := trace.NewLogger(nil, slog.LevelInfo)
	var weights [][]float64
	for _, src := range []source{
		{world: filepath.Join(dir, "w.json"), refRel: "Publish", refAttr: "author", skip: "Publications.title"},
		{schema: filepath.Join(dir, "tsv", "schema.json"), refRel: "Publish", refAttr: "author", skip: "Publications.title"},
	} {
		in, err := src.load(lg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := distinct.Open(in.db, distinct.Config{
			RefRelation: in.refRel, RefAttr: in.refAttr, SkipExpand: in.skip,
			Train: distinct.TrainOptions{
				NumPositive: 300, NumNegative: 300, Seed: 1,
				Exclude: fixture.world.AmbiguousNames(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Train(); err != nil {
			t.Fatal(err)
		}
		resem, walk := eng.Weights()
		weights = append(weights, append(resem, walk...))
	}
	if !reflect.DeepEqual(weights[0], weights[1]) {
		t.Errorf("weights differ:\n world  %v\n export %v", weights[0], weights[1])
	}
}

// tinyDBLP is a three-paper DBLP XML export: two "Wei Wang" papers share
// coauthor Jiong Yang, the third does not.
const tinyDBLP = `<?xml version="1.0" encoding="ISO-8859-1"?>
<dblp>
<inproceedings key="conf/vldb/WangYM97">
  <author>Wei Wang</author><author>Jiong Yang</author>
  <title>STING.</title><booktitle>VLDB</booktitle><year>1997</year>
</inproceedings>
<inproceedings key="conf/sigmod/WangWYY02">
  <author>Wei Wang</author><author>Jiong Yang</author>
  <title>Clustering by pattern similarity.</title><booktitle>SIGMOD</booktitle><year>2002</year>
</inproceedings>
<article key="journals/tkde/Lin05">
  <author>Wei Wang</author><author>Xuemin Lin</author>
  <title>An article.</title><journal>TKDE</journal><year>2005</year>
</article>
</dblp>
`

// TestDBLPXMLInput runs the command on a tiny DBLP XML export, which has
// no ground truth and no room for training.
func TestDBLPXMLInput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dblp.xml"), []byte(tinyDBLP), 0o644); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dblpxml-name", mustRun(t, dir, "-dblpxml", "dblp.xml", "-prune", "1", "-unsupervised", "-name", "Wei Wang"))
}

// TestInputErrors: -dblpxml and -schema together are refused before either
// is read, and a misspelt -skip entry is an error naming it.
func TestInputErrors(t *testing.T) {
	dir := fixtureDir(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-dblpxml", "dblp.xml", "-schema", "schema.json"}, "-dblpxml and -schema"},
		{[]string{"-world", "w.json", "-skip", "Publications.titel"}, `"Publications.titel"`},
	} {
		_, stderr, err := runCmd(dir, c.args...)
		if err == nil || !strings.Contains(string(stderr), c.want) {
			t.Errorf("distinct %q: err = %v, stderr %q", c.args, err, stderr)
		}
	}
}

// TestRenderer: a reference prints as the key of the object it occurs in
// and that object's first plain attribute, or as its values when its
// relation has no foreign key besides the name.
func TestRenderer(t *testing.T) {
	s := distinct.MustSchema(
		distinct.MustRelationSchema("Titles", distinct.Attribute{Name: "title", Key: true}),
		distinct.MustRelationSchema("Albums",
			distinct.Attribute{Name: "album", Key: true},
			distinct.Attribute{Name: "label", FK: "Titles"},
			distinct.Attribute{Name: "year"}),
		distinct.MustRelationSchema("Tracks",
			distinct.Attribute{Name: "title", FK: "Titles"},
			distinct.Attribute{Name: "album", FK: "Albums"}),
		distinct.MustRelationSchema("Plays",
			distinct.Attribute{Name: "title", FK: "Titles"},
			distinct.Attribute{Name: "count"}),
	)
	db := distinct.NewDatabase(s)
	for _, row := range []struct {
		rel  string
		vals []string
	}{
		{"Titles", []string{"Forgotten"}},
		{"Albums", []string{"a1", "Forgotten", "1999"}},
	} {
		if _, err := db.Insert(row.rel, row.vals...); err != nil {
			t.Fatal(err)
		}
	}
	track, err := db.Insert("Tracks", "Forgotten", "a1")
	if err != nil {
		t.Fatal(err)
	}
	play, err := db.Insert("Plays", "Forgotten", "7")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := newRenderer(s, "Tracks", "title")(db, track), "a1         1999"; got != want {
		t.Errorf("track renders as %q, want %q", got, want)
	}
	if got, want := newRenderer(s, "Plays", "title")(db, play), "Forgotten\t7"; got != want {
		t.Errorf("play renders as %q, want %q", got, want)
	}
}
