package difftest

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sta"
)

// makeDelta builds a seeded stimulus edit for a baseline vector — a quarter
// of the events re-timed (shifted arrival, fresh transition time), plus one
// withdrawn outright when enough events remain — and returns the edit
// together with the edited vector a full analysis should see.
func makeDelta(cfg Config, evs []sta.PIEvent) (sta.Delta, []sta.PIEvent) {
	rng := rand.New(rand.NewSource(cfg.Seed*3_000_017 + 7))
	perm := rng.Perm(len(evs))
	nSet := len(evs)/4 + 1

	var delta sta.Delta
	edited := append([]sta.PIEvent(nil), evs...)
	for _, i := range perm[:nSet] {
		ev := evs[i]
		ev.Time += (rng.Float64() - 0.5) * 40e-12
		ev.TT = (120 + 400*rng.Float64()) * 1e-12
		delta.Set = append(delta.Set, ev)
		edited[i] = ev
	}
	if len(evs) > nSet+1 {
		ri := perm[nSet]
		delta.Remove = append(delta.Remove, sta.DeltaRemove{Net: evs[ri].Net, Dir: evs[ri].Dir})
		out := edited[:0:0]
		for j, ev := range edited {
			if j != ri {
				out = append(out, ev)
			}
		}
		edited = out
	}
	return delta, edited
}

// TestOracleDeltaVsFull: delta re-analysis against a kept baseline must be
// bit-identical to a fresh full analysis of the edited vector, on every
// config and for both edit shapes — a broad multi-event edit and the
// single-PI nudge ECO traffic is made of. The sweep proves itself
// non-vacuous: across it the delta path must both reuse and re-evaluate
// gates, or either the cutoff or the propagation never engaged.
func TestOracleDeltaVsFull(t *testing.T) {
	ctx := context.Background()
	totReused, totReeval := 0, 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p, err := c.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name, err)
		}
		opt := sta.Options{Workers: 1}
		baseline, err := p.Analyze(ctx, evs, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg.Name, err)
		}

		// Broad edit: re-time a quarter of the inputs, drop one.
		delta, edited := makeDelta(cfg, evs)
		dres, err := p.AnalyzeDelta(ctx, baseline, delta, opt)
		if err != nil {
			t.Fatalf("%s: delta: %v", cfg.Name, err)
		}
		full, err := p.Analyze(ctx, edited, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: full re-analyze: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, full), Arrivals(c, dres), nil); err != nil {
			t.Errorf("%s: delta diverges from full re-analysis: %v", cfg.Name, err)
		}
		if got, want := dres.Stats.GatesEvaluated, full.Stats.GatesEvaluated; got != want {
			t.Errorf("%s: delta result reports %d gates evaluated, full analysis %d — derived stats drifted",
				cfg.Name, got, want)
		}
		totReused += dres.Stats.GatesReused
		totReeval += dres.Stats.GatesReevaluated

		// ECO nudge: shift a single PI event by 5 ps, leave the rest alone.
		nudge := evs[int(cfg.Seed)%len(evs)]
		nudge.Time += 5e-12
		nudged := append([]sta.PIEvent(nil), evs...)
		nudged[int(cfg.Seed)%len(evs)] = nudge
		dres2, err := p.AnalyzeDelta(ctx, baseline, sta.Delta{Set: []sta.PIEvent{nudge}}, opt)
		if err != nil {
			t.Fatalf("%s: nudge delta: %v", cfg.Name, err)
		}
		full2, err := p.Analyze(ctx, nudged, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: nudge full: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, full2), Arrivals(c, dres2), nil); err != nil {
			t.Errorf("%s: single-PI delta diverges from full re-analysis: %v", cfg.Name, err)
		}
	}
	if totReeval == 0 {
		t.Fatal("no gate was ever re-evaluated across the sweep — delta propagation never engaged, oracle vacuous")
	}
	if totReused == 0 {
		t.Fatal("no baseline arrival was ever reused across the sweep — the bit-equal cutoff never fired, oracle vacuous")
	}
}
