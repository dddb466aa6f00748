package core

import (
	"encoding/json"
	"fmt"
	"io"

	"distinct/internal/cluster"
)

// Model is a portable snapshot of a trained engine: the join paths (by
// canonical string form) with their learned weights, plus the clustering
// configuration. Train once, save, and load into any engine whose schema
// enumerates the same join paths — e.g. tomorrow's refresh of the same
// database.
type Model struct {
	// Format guards against incompatible layouts.
	Format int `json:"format"`
	// RefRelation and RefAttr document what the model disambiguates.
	RefRelation string `json:"refRelation"`
	RefAttr     string `json:"refAttr"`
	// Paths holds the canonical string form of each join path, in weight
	// order.
	Paths []string `json:"paths"`
	// ResemWeights and WalkWeights are the per-path weights (non-negative,
	// summing to 1).
	ResemWeights []float64 `json:"resemWeights"`
	WalkWeights  []float64 `json:"walkWeights"`
	// Measure and MinSim record the clustering configuration the model was
	// tuned with, for documentation; ApplyModel does not override them.
	Measure string  `json:"measure"`
	MinSim  float64 `json:"minSim"`
}

// modelFormat is bumped on incompatible changes.
const modelFormat = 1

// ExportModel snapshots the engine's current weights.
func (e *Engine) ExportModel() *Model {
	m := &Model{
		Format:       modelFormat,
		RefRelation:  e.cfg.RefRelation,
		RefAttr:      e.cfg.RefAttr,
		ResemWeights: append([]float64(nil), e.w.resem...),
		WalkWeights:  append([]float64(nil), e.w.walk...),
		Measure:      e.cfg.Measure.String(),
		MinSim:       e.cfg.MinSim,
	}
	for _, p := range e.paths {
		m.Paths = append(m.Paths, p.String())
	}
	return m
}

// ApplyModel installs a saved model's weights into the engine. The model's
// path list must match the engine's enumerated paths exactly (same schema,
// same MaxPathLen, same exclusions); a mismatch is an error rather than a
// silent misalignment.
func (e *Engine) ApplyModel(m *Model) error {
	if m.Format != modelFormat {
		return fmt.Errorf("core: model format %d unsupported (want %d)", m.Format, modelFormat)
	}
	if m.RefRelation != e.cfg.RefRelation || m.RefAttr != e.cfg.RefAttr {
		return fmt.Errorf("core: model disambiguates %s.%s, engine %s.%s",
			m.RefRelation, m.RefAttr, e.cfg.RefRelation, e.cfg.RefAttr)
	}
	if len(m.Paths) != len(e.paths) {
		return fmt.Errorf("core: model has %d paths, engine enumerates %d", len(m.Paths), len(e.paths))
	}
	for i, p := range e.paths {
		if m.Paths[i] != p.String() {
			return fmt.Errorf("core: path %d mismatch: model %q, engine %q", i, m.Paths[i], p)
		}
	}
	if len(m.ResemWeights) != len(e.paths) || len(m.WalkWeights) != len(e.paths) {
		return fmt.Errorf("core: model weight vectors do not cover %d paths", len(e.paths))
	}
	e.w = weights{normalize(m.ResemWeights), normalize(m.WalkWeights)}
	return nil
}

// SaveModel writes the engine's current weights as JSON.
func (e *Engine) SaveModel(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.ExportModel())
}

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	return &m, nil
}

// MeasureFromString parses a cluster.Measure name as produced by
// Measure.String; used when reconstructing configuration from a model.
func MeasureFromString(s string) (cluster.Measure, error) {
	for _, m := range []cluster.Measure{
		cluster.Combined, cluster.ResemOnly, cluster.WalkOnly,
		cluster.CombinedArithmetic, cluster.SingleLink, cluster.CompleteLink,
	} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown measure %q", s)
}
