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

// editCircuit applies a structural edit to a built config: a new primary
// input joined into existing mid-circuit logic, with the result marked as an
// output. Chains carry an inverter-only library, so the edit degrades to
// inverter taps there; DAGs get a genuine multi-input join.
func editCircuit(t *testing.T, cfg Config, c *sta.Circuit) {
	t.Helper()
	np := c.Input("xpi")
	tap := c.Gates[len(c.Gates)/2].Out
	var joined *sta.Net
	var err error
	if cfg.Chain {
		a, err2 := c.AddGate("xg0", "inv", "xn0", np)
		if err2 != nil {
			t.Fatalf("%s: edit: %v", cfg.Name, err2)
		}
		_, err2 = c.AddGate("xg1", "inv", "xn1", tap)
		if err2 != nil {
			t.Fatalf("%s: edit: %v", cfg.Name, err2)
		}
		joined, err = c.AddGate("xg2", "inv", "xn2", a)
	} else {
		joined, err = c.AddGate("xg0", "nand2", "xn0", np, tap)
	}
	if err != nil {
		t.Fatalf("%s: edit: %v", cfg.Name, err)
	}
	c.MarkOutput(joined)
}

// TestOracleIncrementalCompile: after a structural edit, the incrementally
// recompiled handle must produce analyses and fanout cones bit-identical to
// compiling an identically constructed circuit from scratch — re-levelizing
// only downstream of the edit must never change the answer.
func TestOracleIncrementalCompile(t *testing.T) {
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		// Analyze once pre-edit so the old handle exists and carries its
		// consumer table — the state the incremental path reuses.
		if _, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 1}); err != nil {
			t.Fatalf("%s: pre-edit analyze: %v", cfg.Name, err)
		}
		editCircuit(t, cfg, c)

		ref, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: rebuild: %v", cfg.Name, err)
		}
		editCircuit(t, cfg, ref)

		// The edited stimulus covers every PI, the new one included.
		events := sta.SynthEvents(c, cfg.Seed)
		refEvents := make([]sta.PIEvent, len(events))
		for i, ev := range events {
			refEvents[i] = sta.PIEvent{Net: ref.Net(ev.Net.Name), Dir: ev.Dir, TT: ev.TT, Time: ev.Time}
		}
		incRes, err := c.AnalyzeOpts(events, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: incremental analyze: %v", cfg.Name, err)
		}
		refRes, err := ref.AnalyzeOpts(refEvents, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: from-scratch analyze: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(ref, refRes), Arrivals(c, incRes), nil); err != nil {
			t.Errorf("%s: incremental recompile diverges from from-scratch: %v", cfg.Name, err)
		}

		// Cones must match index-for-index (both circuits list gates in the
		// same construction order).
		inc, err := c.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name, err)
		}
		refC, err := ref.Compile()
		if err != nil {
			t.Fatalf("%s: ref compile: %v", cfg.Name, err)
		}
		for _, pi := range c.PIs {
			incCone, ok1 := inc.Cone(pi)
			refCone, ok2 := refC.Cone(ref.Net(pi.Name))
			if ok1 != ok2 || len(incCone) != len(refCone) {
				t.Fatalf("%s: PI %s cone shape: (%v,%d) incremental vs (%v,%d) from scratch",
					cfg.Name, pi.Name, ok1, len(incCone), ok2, len(refCone))
			}
			for k := range refCone {
				if incCone[k] != refCone[k] {
					t.Fatalf("%s: PI %s cone[%d]: %d incremental vs %d from scratch",
						cfg.Name, pi.Name, k, incCone[k], refCone[k])
				}
			}
		}
	}
}
