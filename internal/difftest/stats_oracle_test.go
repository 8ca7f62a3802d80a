package difftest

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sta"
)

// TestOracleStatsSparseVsDense: the workload counters in Result.Stats are
// part of the observable contract — the service aggregates them into
// /metrics — so the walk must report exactly the work the dense reference
// does. GatesScheduled counts the gates the walk ran, and every gate a full
// analysis runs has an input arrival, so it must equal GatesEvaluated on
// every config, filtered or not. The always-on phase timers must be
// internally consistent (non-negative, disjoint sum bounded by the measured
// wall) on every config too.
func TestOracleStatsSparseVsDense(t *testing.T) {
	ctx := context.Background()
	checkPhases := func(label string, s sta.Stats) {
		t.Helper()
		for _, p := range obs.Phases() {
			if s.Phases[p] < 0 {
				t.Fatalf("%s: phase %v negative: %v", label, p, s.Phases[p])
			}
		}
		if s.Wall <= 0 {
			t.Fatalf("%s: wall = %v", label, s.Wall)
		}
		if sum := s.Phases.Sum(); sum > s.Wall {
			t.Fatalf("%s: phase sum %v exceeds wall %v", label, sum, s.Wall)
		}
	}
	for _, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		levels, err := c.Levels()
		if err != nil {
			t.Fatalf("%s: levels: %v", cfg.Name, err)
		}
		p := compile(t, c)
		for _, vec := range refVectors(t, cfg, c) {
			for _, filter := range []bool{false, true} {
				label := cfg.Name + "/" + vec.label
				if filter {
					label += "/filtered"
				}
				ref, err := runDenseRef(c, vec.events, cfg.Mode, filter)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				res, err := p.Analyze(ctx, vec.events, cfg.Mode, sta.Options{Workers: 2, PulseFiltering: filter})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s, d := res.Stats, ref.stats
				if s.GatesEvaluated != d.GatesEvaluated ||
					s.Evaluations != d.Evaluations ||
					s.ProximityEvals != d.ProximityEvals ||
					s.SingleArcEvals != d.SingleArcEvals ||
					s.Levels != len(levels) {
					t.Errorf("%s: stats diverge walk vs reference:\n"+
						"  gatesEvaluated %d/%d evaluations %d/%d proximity %d/%d singleArc %d/%d levels %d/%d",
						label,
						s.GatesEvaluated, d.GatesEvaluated, s.Evaluations, d.Evaluations,
						s.ProximityEvals, d.ProximityEvals, s.SingleArcEvals, d.SingleArcEvals,
						s.Levels, len(levels))
				}
				if s.GatesScheduled != s.GatesEvaluated {
					t.Errorf("%s: the walk ran %d gates but %d evaluated — a full analysis runs only gates with an input arrival",
						label, s.GatesScheduled, s.GatesEvaluated)
				}
				checkPhases(label, s)
			}
		}
	}
}
