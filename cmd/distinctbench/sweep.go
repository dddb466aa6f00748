package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"distinct/internal/core"
	"distinct/internal/eval"
	"distinct/internal/reldb"
)

// sweepRun is the "sweep" workload: whole-database disambiguation run cold,
// as a one-shot batch user pays it. Each op opens a fresh engine on the
// same database and applies the trained model (untimed), then times one
// DisambiguateAllCtx over every name with at least two references.
type sweepRun struct {
	c  config
	fx *fixture

	// Whether the fixture has had its warm-up sweeps, and the first one's
	// answer, which every later op must reproduce.
	warm bool
	hash uint64
	f1   float64
}

// sweepOp is one timed sweep.
type sweepOp struct {
	dur   time.Duration
	alloc uint64
	res   *core.BatchResult
	hash  uint64
	f1    float64
}

func (s *sweepRun) fixture() *fixture { return s.fx }

func (s *sweepRun) setup(ctx context.Context) error {
	s.fx, s.warm = nil, false
	fx, err := newFixture(ctx, s.c, nil, nil)
	if err != nil {
		return err
	}
	s.fx = fx
	return nil
}

// warmUp runs the untimed warm-up sweeps, once per fixture, before its
// first timed op. They fill the allocator and the pools: the first ops
// allocate about twice what a steady op does. They are not set-up work,
// only the measured op run early, so set-up time leaves them out.
func (s *sweepRun) warmUp(ctx context.Context) error {
	if s.warm {
		return nil
	}
	for i := 0; i < max(1, s.c.warmups); i++ {
		op, err := s.op(ctx, probe{})
		if err != nil {
			return err
		}
		if i == 0 {
			s.hash, s.f1 = op.hash, op.f1
			if err := s.checkF1(); err != nil {
				return err
			}
		}
		if problem := s.check(op); problem != "" {
			return fmt.Errorf("warm-up sweep: %s", problem)
		}
	}
	s.warm = true
	return nil
}

// op runs one sweep on a fresh engine. The previous op's engine becomes
// garbage that the sweep's own collections reclaim, as in a process that
// sweeps repeatedly; the fixture keeps the new, now warm, engine.
func (s *sweepRun) op(ctx context.Context, p probe) (sweepOp, error) {
	s.fx.eng = nil
	cfg := s.fx.cfg
	cfg.Obs = p.reg
	eng, err := core.NewEngineCtx(ctx, s.fx.world.DB, cfg)
	if err != nil {
		return sweepOp{}, err
	}
	if err := eng.ApplyModel(s.fx.model); err != nil {
		return sweepOp{}, err
	}
	sp := p.span.Start("core.sweep")
	a0 := allocBytes()
	t0 := time.Now()
	res, err := eng.DisambiguateAllCtx(ctx, core.BatchOptions{MinRefs: 2})
	dur := time.Since(t0)
	alloc := allocBytes() - a0
	sp.End()
	if err != nil {
		return sweepOp{}, err
	}
	s.fx.eng = eng
	f1, err := tableF1(s.fx, eng, res)
	if err != nil {
		return sweepOp{}, err
	}
	return sweepOp{dur: dur, alloc: alloc, res: res, hash: groupHash(res), f1: f1}, nil
}

// check returns what is wrong with an op's answer, or "".
func (s *sweepRun) check(op sweepOp) string {
	switch {
	case len(op.res.Incidents) > 0:
		inc := op.res.Incidents[0]
		return fmt.Sprintf("%d incidents, first %q: %s at %s: %s",
			len(op.res.Incidents), inc.Name, inc.Reason, inc.Stage, inc.Err)
	case op.res.NamesExamined != len(s.fx.names):
		return fmt.Sprintf("examined %d names, want %d", op.res.NamesExamined, len(s.fx.names))
	case op.hash != s.hash:
		return fmt.Sprintf("groups hash %016x differs from the first sweep's %016x", op.hash, s.hash)
	case op.f1 != s.f1:
		return fmt.Sprintf("f1 %v differs from the first sweep's %v", op.f1, s.f1)
	}
	return ""
}

// expectedF1 is the mean pairwise f-measure of the ten Table-1 names after
// the first sweep on the paper-scale world with the benchmark's training
// sample. The sweep is deterministic, so a different value is a change of
// answers, not noise.
const expectedF1 = 0.9026232260791407

// checkF1 compares the Table-1 f-measure with the recorded value, when the
// run uses the paper-scale world.
func (s *sweepRun) checkF1() error {
	if s.c.communities != 0 || s.c.authors != 0 || s.c.trainPairs != 1000 {
		return nil
	}
	if s.f1 != expectedF1 {
		return fmt.Errorf("Table-1 f1 is %v, want %v", s.f1, expectedF1)
	}
	return nil
}

func (s *sweepRun) phase(ctx context.Context, seconds float64, p probe) (*phaseResult, error) {
	if err := s.warmUp(ctx); err != nil {
		return nil, err
	}
	ph := &phaseResult{}
	start := time.Now()
	for len(ph.lat) < s.c.minOps || time.Since(start).Seconds() < seconds {
		op, err := s.op(ctx, p)
		if err != nil {
			return nil, err
		}
		ph.lat = append(ph.lat, op.dur)
		ph.busy += op.dur
		ph.alloc += op.alloc
		ph.opAlloc = append(ph.opAlloc, float64(op.alloc))
		ph.attempted++
		if problem := s.check(op); problem != "" {
			ph.fail(1, "sweep: "+problem)
		}
	}
	ph.extra = map[string]metric{"f1": {Value: s.f1, Unit: "ratio"}}
	return ph, nil
}

// tableF1 scores the sweep's groups for the ten Table-1 names against the
// world's ground truth: mean pairwise f-measure.
func tableF1(fx *fixture, eng *core.Engine, res *core.BatchResult) (float64, error) {
	split := make(map[string][][]reldb.TupleID, len(res.Split))
	for _, ng := range res.Split {
		split[ng.Name] = ng.Groups
	}
	names := fx.world.AmbiguousNames()
	sum := 0.0
	for _, name := range names {
		pred, ok := split[name]
		if !ok {
			pred = [][]reldb.TupleID{eng.RefsForName(name)}
		}
		var gold eval.Clustering
		for _, g := range fx.world.GoldClusters(name) {
			gold = append(gold, eng.MapRefs(g))
		}
		m, err := eval.Evaluate(eval.Clustering(pred), gold)
		if err != nil {
			return 0, fmt.Errorf("scoring %q: %w", name, err)
		}
		sum += m.F1
	}
	return sum / float64(len(names)), nil
}

// groupHash fingerprints a sweep's answer: every split name with its
// groups, in the result's deterministic order.
func groupHash(res *core.BatchResult) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, ng := range res.Split {
		h.Write([]byte(ng.Name))
		h.Write([]byte{0})
		for _, g := range ng.Groups {
			for _, r := range g {
				binary.LittleEndian.PutUint32(b[:], uint32(r))
				h.Write(b[:])
			}
			h.Write([]byte{1})
		}
	}
	return h.Sum64()
}
