package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"distinct/internal/cluster"
)

func TestModelRoundTrip(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh engine (uniform weights) adopts the saved weights exactly.
	e2 := newTestEngine(t, w, true)
	m, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ApplyModel(m); err != nil {
		t.Fatal(err)
	}
	r1, w1 := e.Weights()
	r2, w2 := e2.Weights()
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-15 || math.Abs(w1[i]-w2[i]) > 1e-15 {
			t.Fatalf("weights differ at %d: %v/%v vs %v/%v", i, r1[i], w1[i], r2[i], w2[i])
		}
	}
	// Same clustering behaviour after the transfer.
	a, err := e.DisambiguateNameCtx(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.DisambiguateNameCtx(context.Background(), "Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("clusterings differ: %d vs %d groups", len(a), len(b))
	}
}

func TestApplyModelValidation(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	m := e.ExportModel()

	bad := *m
	bad.Format = 99
	if err := e.ApplyModel(&bad); err == nil {
		t.Error("wrong format accepted")
	}
	bad = *m
	bad.RefAttr = "other"
	if err := e.ApplyModel(&bad); err == nil {
		t.Error("wrong reference attribute accepted")
	}
	bad = *m
	bad.Paths = bad.Paths[1:]
	if err := e.ApplyModel(&bad); err == nil {
		t.Error("short path list accepted")
	}
	bad = *m
	bad.Paths = append([]string(nil), m.Paths...)
	bad.Paths[0] = "Bogus>edge>Path"
	if err := e.ApplyModel(&bad); err == nil {
		t.Error("mismatched path accepted")
	}
	bad = *m
	bad.ResemWeights = bad.ResemWeights[:1]
	if err := e.ApplyModel(&bad); err == nil {
		t.Error("short weights accepted")
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("garbage model accepted")
	}
}

func TestModelDocumentsConfig(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	m := e.ExportModel()
	if m.Measure != "combined" || m.MinSim != 0.005 {
		t.Errorf("model config %q/%v", m.Measure, m.MinSim)
	}
	if m.RefRelation != "Publish" || m.RefAttr != "author" {
		t.Errorf("model reference %s.%s", m.RefRelation, m.RefAttr)
	}
}

func TestMeasureFromString(t *testing.T) {
	for _, m := range []cluster.Measure{
		cluster.Combined, cluster.ResemOnly, cluster.WalkOnly,
		cluster.CombinedArithmetic, cluster.SingleLink, cluster.CompleteLink,
	} {
		got, err := MeasureFromString(m.String())
		if err != nil || got != m {
			t.Errorf("round trip of %v failed: %v %v", m, got, err)
		}
	}
	if _, err := MeasureFromString("nope"); err == nil {
		t.Error("unknown measure accepted")
	}
}
