package difftest

// Monte-Carlo oracles. The statistical mode reuses the deterministic
// engine's arithmetic sample by sample, so it inherits two bit-level
// contracts the sweep enforces across every seeded config:
//
//  1. Sigma-zero identity: a sigma=0 sample takes the exact unperturbed
//     code path (the perturbation terms are guarded, not multiplied by 1),
//     so single-sample MC aggregates must equal the deterministic Analyze
//     arrival bit for bit.
//  2. Seed stability: deviates are pure functions of (seed, sample, gate)
//     and aggregation runs in sample order after the worker barrier, so the
//     same (seed, samples, sigma) must produce bit-identical aggregates and
//     criticality votes at every worker count.

import (
	"context"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// TestOracleMCSigmaZero: sigma=0 single-sample Monte-Carlo is bit-identical
// to the deterministic Analyze across the full config sweep. Every
// primary-output arrival of the deterministic run must appear as a
// zero-width distribution at exactly the deterministic crossing time.
func TestOracleMCSigmaZero(t *testing.T) {
	ctx := context.Background()
	distsCompared, critEntries := 0, 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		ref, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: analyze: %v", cfg.Name, err)
		}
		res, err := p.AnalyzeMC(ctx, evs, cfg.Mode, sta.MCOptions{Samples: 1, Seed: 17, Sigma: 0})
		if err != nil {
			t.Fatalf("%s: mc: %v", cfg.Name, err)
		}
		// Index MC's distributions and walk the deterministic PO arrivals:
		// both sides must cover exactly the same (net, direction) set.
		type key struct {
			net string
			dir int
		}
		got := map[key]sta.OutputDist{}
		for _, od := range res.Outputs {
			got[key{od.Net.Name, int(od.Dir)}] = od
		}
		want := 0
		for _, po := range c.POs {
			for dir := 0; dir < 2; dir++ {
				a, ok := ref.Arrival(po, waveform.Direction(dir))
				od, okMC := got[key{po.Name, dir}]
				if ok != okMC {
					t.Fatalf("%s: %s dir %d: deterministic has-arrival=%v but MC has-dist=%v",
						cfg.Name, po.Name, dir, ok, okMC)
				}
				if !ok {
					continue
				}
				want++
				d := od.Dist
				// One sample: every aggregate IS that sample — bit-exact.
				if d.N != 1 || d.Mean != a.Time || d.Min != a.Time || d.Max != a.Time ||
					d.P50 != a.Time || d.P95 != a.Time || d.P99 != a.Time || d.Std != 0 {
					t.Fatalf("%s: %s dir %d: sigma-0 dist %+v != deterministic arrival %v",
						cfg.Name, po.Name, dir, d, a.Time)
				}
			}
		}
		if len(res.Outputs) != want {
			t.Fatalf("%s: MC reports %d output dists, deterministic run has %d PO arrivals",
				cfg.Name, len(res.Outputs), want)
		}
		distsCompared += want
		critEntries += len(res.Criticality)
	}
	if distsCompared < nConfigs {
		t.Fatalf("only %d distributions compared over %d configs — sweep too thin", distsCompared, nConfigs)
	}
	if critEntries == 0 {
		t.Fatal("no criticality entries across the whole sweep — oracle is vacuous")
	}
}

// TestOracleMCSeedStability: same seed + samples + sigma → bit-identical
// aggregates and criticality regardless of the worker count. Run with -race
// in CI, this also proves the parallel sample loop is clean.
func TestOracleMCSeedStability(t *testing.T) {
	ctx := context.Background()
	spread := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		opt := sta.MCOptions{Samples: 8, Seed: 23, Sigma: 0.03}
		opt.Workers = 1
		p := compile(t, c)
		ref, err := p.AnalyzeMC(ctx, evs, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: mc workers=1: %v", cfg.Name, err)
		}
		opt.Workers = 5
		got, err := p.AnalyzeMC(ctx, evs, cfg.Mode, opt)
		if err != nil {
			t.Fatalf("%s: mc workers=5: %v", cfg.Name, err)
		}
		if len(got.Outputs) != len(ref.Outputs) {
			t.Fatalf("%s: output count %d vs %d across worker counts", cfg.Name, len(got.Outputs), len(ref.Outputs))
		}
		for i := range ref.Outputs {
			a, b := ref.Outputs[i].Dist, got.Outputs[i].Dist
			if ref.Outputs[i].Net != got.Outputs[i].Net || ref.Outputs[i].Dir != got.Outputs[i].Dir ||
				a.N != b.N || a.Mean != b.Mean || a.Std != b.Std || a.Min != b.Min ||
				a.Max != b.Max || a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
				t.Fatalf("%s: output %d aggregates differ across worker counts:\n  w1: %+v\n  w5: %+v",
					cfg.Name, i, a, b)
			}
			if a.Std > 0 {
				spread++
			}
		}
		if len(got.Criticality) != len(ref.Criticality) {
			t.Fatalf("%s: criticality size differs across worker counts", cfg.Name)
		}
		for i := range ref.Criticality {
			if ref.Criticality[i].Gate != got.Criticality[i].Gate ||
				ref.Criticality[i].Count != got.Criticality[i].Count {
				t.Fatalf("%s: criticality entry %d differs across worker counts", cfg.Name, i)
			}
		}
	}
	if spread == 0 {
		t.Fatal("sigma 0.03 never spread any output — the perturbed path never ran, oracle is vacuous")
	}
}
