package difftest

// Filtered delta / Monte-Carlo oracles. Section-6 pulse filtering changes
// what "unchanged" means — an absorbed pair commits NO arrivals, so the
// delta walk's bit-equal cutoff can only be sound if it re-judges every
// re-evaluated pair against the raw (pre-filter) shape. These sweeps pin
// the contracts the wiring must satisfy:
//
//  1. Filtered delta identity: a delta re-analysis over a filtered baseline
//     must be bit-identical to a fresh filtered analysis of the edited
//     vector — arrivals, verdict records, and counters. The sweep proves
//     itself non-vacuous by counting verdict flips (a gate whose Section-6
//     verdict differs between baseline and edited vector): zero flips means
//     the edits never crossed an inertial boundary and the oracle tested
//     nothing.
//  2. MC sigma-zero identity under filtering: a sigma=0 filtered sample
//     must take the deterministic filtered path bit for bit — absorbed
//     outputs report no distribution, counters sum per sample, and the
//     glitch-criticality vote is unanimous.
//  3. Vote stability: glitch-criticality tallies are per-gate atomic
//     counters aggregated after the worker barrier, so a fixed seed must
//     produce bit-identical votes at every worker count.

import (
	"context"
	"testing"

	"repro/internal/sta"
)

// pulseVerdicts flattens a result's Section-6 records into a comparable map
// over every net (PulseInfo is all scalars, so == is bit-exact).
func pulseVerdicts(c *sta.Circuit, res *sta.Result) map[string]sta.PulseInfo {
	out := map[string]sta.PulseInfo{}
	for _, name := range c.NetsByName() {
		if pi, ok := res.Pulse(c.Net(name)); ok {
			out[name] = pi
		}
	}
	return out
}

// TestOracleGlitchDeltaVsFull: with filtering on, delta re-analysis against
// a kept filtered baseline must be bit-identical to a fresh filtered
// analysis of the edited vector — arrivals via DiffExact, plus every
// PulseInfo record and all three verdict counters. Verdict flips (absorbed
// pair resurrected by the edit, surviving pair newly absorbed, verdict
// class changed) are the cases the naive bit-equal cutoff gets wrong, so
// the sweep fails if it never produced one.
func TestOracleGlitchDeltaVsFull(t *testing.T) {
	ctx := context.Background()
	verdictFlips, judged := 0, 0
	totReused, totReeval := 0, 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p, err := c.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name, err)
		}
		opt := sta.Options{Workers: 1, PulseFiltering: true}
		baseline, err := p.Analyze(ctx, evs, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg.Name, err)
		}

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
			t.Errorf("%s: filtered delta diverges from full filtered re-analysis: %v", cfg.Name, err)
		}
		if dres.Stats.PulsesFiltered != full.Stats.PulsesFiltered ||
			dres.Stats.PulsesDegraded != full.Stats.PulsesDegraded ||
			dres.Stats.PulsesUnjudged != full.Stats.PulsesUnjudged {
			t.Errorf("%s: delta counters (%d,%d,%d) != full (%d,%d,%d)", cfg.Name,
				dres.Stats.PulsesFiltered, dres.Stats.PulsesDegraded, dres.Stats.PulsesUnjudged,
				full.Stats.PulsesFiltered, full.Stats.PulsesDegraded, full.Stats.PulsesUnjudged)
		}
		gotV, wantV := pulseVerdicts(c, dres), pulseVerdicts(c, full)
		if len(gotV) != len(wantV) {
			t.Errorf("%s: delta records %d pulse verdicts, full %d", cfg.Name, len(gotV), len(wantV))
		}
		for net, want := range wantV {
			if got, ok := gotV[net]; !ok || got != want {
				t.Errorf("%s: net %s verdict %+v (present=%v) != full %+v", cfg.Name, net, got, ok, want)
			}
		}

		// Flip accounting against the baseline's verdict map — the shapes
		// the tentpole exists for.
		baseV := pulseVerdicts(c, baseline)
		for net, b := range baseV {
			if f, ok := wantV[net]; !ok || f.Filtered != b.Filtered || f.Unjudged != b.Unjudged {
				verdictFlips++
			}
		}
		for net := range wantV {
			if _, ok := baseV[net]; !ok {
				verdictFlips++
			}
		}
		judged += full.Stats.PulsesFiltered + full.Stats.PulsesDegraded
		totReused += dres.Stats.GatesReused
		totReeval += dres.Stats.GatesReevaluated
	}
	if judged == 0 {
		t.Fatal("no pulse judged across the whole sweep — oracle is vacuous")
	}
	if verdictFlips == 0 {
		t.Fatal("no edit ever flipped a Section-6 verdict — the re-judging path never engaged, oracle vacuous")
	}
	if totReused == 0 || totReeval == 0 {
		t.Fatalf("filtered delta sweep degenerate: %d reused, %d re-evaluated", totReused, totReeval)
	}
}

// TestOracleGlitchMCSigmaZero: a sigma=0 single-sample filtered Monte-Carlo
// run must be the deterministic filtered analysis bit for bit: identical
// pulse counters, output distributions exactly at the filtered arrivals
// (absorbed outputs report none), and a unanimous glitch-criticality vote —
// every judged gate voted in the one sample, probability exactly 1.
func TestOracleGlitchMCSigmaZero(t *testing.T) {
	ctx := context.Background()
	judged, votes := 0, 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		ref, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("%s: analyze: %v", cfg.Name, err)
		}
		mcOpt := sta.MCOptions{Samples: 1, Seed: 17, Sigma: 0}
		mcOpt.PulseFiltering = true
		res, err := p.AnalyzeMC(ctx, evs, cfg.Mode, mcOpt)
		if err != nil {
			t.Fatalf("%s: mc: %v", cfg.Name, err)
		}
		if res.Stats.PulsesFiltered != ref.Stats.PulsesFiltered ||
			res.Stats.PulsesDegraded != ref.Stats.PulsesDegraded ||
			res.Stats.PulsesUnjudged != ref.Stats.PulsesUnjudged {
			t.Errorf("%s: MC counters (%d,%d,%d) != deterministic (%d,%d,%d)", cfg.Name,
				res.Stats.PulsesFiltered, res.Stats.PulsesDegraded, res.Stats.PulsesUnjudged,
				ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded, ref.Stats.PulsesUnjudged)
		}
		for _, od := range res.Outputs {
			a, ok := ref.Arrival(od.Net, od.Dir)
			if !ok {
				t.Fatalf("%s: MC reports a dist on %s %v the filtered analysis absorbed",
					cfg.Name, od.Net.Name, od.Dir)
			}
			d := od.Dist
			if d.N != 1 || d.Mean != a.Time || d.Min != a.Time || d.Max != a.Time {
				t.Fatalf("%s: %s %v: sigma-0 dist %+v != filtered arrival %v",
					cfg.Name, od.Net.Name, od.Dir, d, a.Time)
			}
		}
		for _, gc := range res.GlitchCriticality {
			votes++
			if gc.Absorbed+gc.Degraded != 1 {
				t.Errorf("%s: gate %s voted %d/%d in a single sample", cfg.Name,
					gc.Gate.Name, gc.Absorbed, gc.Degraded)
			}
			if gc.PAbsorbed+gc.PDegraded != 1 {
				t.Errorf("%s: gate %s probabilities %g+%g != 1 over one sample", cfg.Name,
					gc.Gate.Name, gc.PAbsorbed, gc.PDegraded)
			}
			if pi, ok := ref.Pulse(gc.Gate.Out); !ok {
				t.Errorf("%s: MC votes on %s but the deterministic run recorded no verdict there",
					cfg.Name, gc.Gate.Out.Name)
			} else if pi.Unjudged {
				t.Errorf("%s: unjudged pair on %s counted as a glitch vote", cfg.Name, gc.Gate.Out.Name)
			} else if pi.Filtered != (gc.Absorbed == 1) {
				t.Errorf("%s: vote on %s (absorbed=%d) disagrees with deterministic verdict (filtered=%v)",
					cfg.Name, gc.Gate.Out.Name, gc.Absorbed, pi.Filtered)
			}
		}
		judged += ref.Stats.PulsesFiltered + ref.Stats.PulsesDegraded
	}
	if judged == 0 || votes == 0 {
		t.Fatalf("sweep vacuous: %d pulses judged, %d criticality votes", judged, votes)
	}
}

// TestOracleGlitchMCVoteStability: same seed + samples + sigma must tally
// bit-identical glitch-criticality votes and pulse counters at every worker
// count — the votes are atomic per-gate counters, so scheduling must never
// leak into the tallies.
func TestOracleGlitchMCVoteStability(t *testing.T) {
	ctx := context.Background()
	entries := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		mcOpt := sta.MCOptions{Samples: 8, Seed: 23, Sigma: 0.05}
		mcOpt.PulseFiltering = true
		mcOpt.Workers = 1
		p := compile(t, c)
		ref, err := p.AnalyzeMC(ctx, evs, cfg.Mode, mcOpt)
		if err != nil {
			t.Fatalf("%s: mc workers=1: %v", cfg.Name, err)
		}
		mcOpt.Workers = 6
		got, err := p.AnalyzeMC(ctx, evs, cfg.Mode, mcOpt)
		if err != nil {
			t.Fatalf("%s: mc workers=6: %v", cfg.Name, err)
		}
		if got.Stats.PulsesFiltered != ref.Stats.PulsesFiltered ||
			got.Stats.PulsesDegraded != ref.Stats.PulsesDegraded ||
			got.Stats.PulsesUnjudged != ref.Stats.PulsesUnjudged {
			t.Errorf("%s: pulse counters differ across worker counts: (%d,%d,%d) vs (%d,%d,%d)",
				cfg.Name,
				got.Stats.PulsesFiltered, got.Stats.PulsesDegraded, got.Stats.PulsesUnjudged,
				ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded, ref.Stats.PulsesUnjudged)
		}
		if len(got.GlitchCriticality) != len(ref.GlitchCriticality) {
			t.Fatalf("%s: glitch criticality size %d vs %d across worker counts",
				cfg.Name, len(got.GlitchCriticality), len(ref.GlitchCriticality))
		}
		for i := range ref.GlitchCriticality {
			a, b := ref.GlitchCriticality[i], got.GlitchCriticality[i]
			if a.Gate != b.Gate || a.Absorbed != b.Absorbed || a.Degraded != b.Degraded ||
				a.PAbsorbed != b.PAbsorbed || a.PDegraded != b.PDegraded {
				t.Errorf("%s: glitch vote %d differs across worker counts:\n  w1: %+v\n  w6: %+v",
					cfg.Name, i, a, b)
			}
		}
		entries += len(ref.GlitchCriticality)
	}
	if entries == 0 {
		t.Fatal("no glitch-criticality entry across the whole sweep — oracle is vacuous")
	}
}
