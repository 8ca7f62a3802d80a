package sta_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sta"
)

// mcTestCircuit compiles a small random DAG and a stimulus for it.
func mcTestCircuit(t testing.TB) (*sta.Compiled, []sta.PIEvent) {
	t.Helper()
	c, err := sta.SynthRandom(12, 80, 41)
	if err != nil {
		t.Fatal(err)
	}
	return compile(t, c), sta.SynthEvents(c, 7)
}

// A sigma-0 Monte-Carlo run takes the unperturbed arithmetic path, so every
// sample — and therefore every aggregate — must be bit-identical to the
// deterministic analysis. (The full 120-config sweep lives in the difftest
// oracle; this is the fast in-package check.)
func TestMCSigmaZeroMatchesAnalyze(t *testing.T) {
	p, evs := mcTestCircuit(t)
	for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
		ref, err := p.Analyze(context.Background(), evs, mode, sta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.AnalyzeMC(context.Background(), evs, mode, sta.MCOptions{Samples: 3, Sigma: 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outputs) == 0 {
			t.Fatalf("%v: no output distributions", mode)
		}
		for _, od := range res.Outputs {
			a, ok := ref.Arrival(od.Net, od.Dir)
			if !ok {
				t.Fatalf("%v: MC reports %s %v but deterministic analysis has no arrival", mode, od.Net.Name, od.Dir)
			}
			// Min/Max/percentiles are order statistics of the (identical)
			// samples, so they are bit-exact; the mean is sum/n and may sit
			// one ULP off the sample value.
			if od.Dist.N != 3 || od.Dist.Min != a.Time || od.Dist.Max != a.Time ||
				od.Dist.P50 != a.Time || od.Dist.P99 != a.Time {
				t.Fatalf("%v %s %v: sigma-0 dist %+v != deterministic arrival %v",
					mode, od.Net.Name, od.Dir, od.Dist, a.Time)
			}
			if math.Abs(od.Dist.Mean-a.Time) > 1e-12*math.Abs(a.Time) || od.Dist.Std > 1e-12*math.Abs(a.Time) {
				t.Fatalf("%v %s %v: sigma-0 mean/std %v/%v drifted from %v",
					mode, od.Net.Name, od.Dir, od.Dist.Mean, od.Dist.Std, a.Time)
			}
		}
		if len(res.Criticality) == 0 {
			t.Fatalf("%v: no criticality entries", mode)
		}
		// Every sample has the same critical path, so counts are all-or-nothing.
		for _, gc := range res.Criticality {
			if gc.Count != res.Samples || gc.Probability != 1 {
				t.Fatalf("%v: sigma-0 criticality %s count=%d p=%v, want %d/1",
					mode, gc.Gate.Name, gc.Count, gc.Probability, res.Samples)
			}
		}
	}
}

// Same seed + samples must produce bit-identical aggregates regardless of
// the worker count: deviates are pure functions of (seed, sample, gate) and
// aggregation runs in sample order after the barrier.
func TestMCWorkerCountInvariance(t *testing.T) {
	p, evs := mcTestCircuit(t)
	base := sta.MCOptions{Samples: 24, Seed: 99, Sigma: 0.04}
	base.Workers = 1
	ref, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		opt := base
		opt.Workers = workers
		got, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Outputs) != len(ref.Outputs) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got.Outputs), len(ref.Outputs))
		}
		for i, od := range got.Outputs {
			rd := ref.Outputs[i]
			if od.Net != rd.Net || od.Dir != rd.Dir ||
				od.Dist.Mean != rd.Dist.Mean || od.Dist.Std != rd.Dist.Std ||
				od.Dist.P50 != rd.Dist.P50 || od.Dist.P95 != rd.Dist.P95 ||
				od.Dist.P99 != rd.Dist.P99 || od.Dist.Max != rd.Dist.Max {
				t.Fatalf("workers=%d: output %d differs: %+v vs %+v", workers, i, od.Dist, rd.Dist)
			}
		}
		if len(got.Criticality) != len(ref.Criticality) {
			t.Fatalf("workers=%d: criticality length %d vs %d", workers, len(got.Criticality), len(ref.Criticality))
		}
		for i, gc := range got.Criticality {
			if gc.Gate != ref.Criticality[i].Gate || gc.Count != ref.Criticality[i].Count {
				t.Fatalf("workers=%d: criticality %d differs", workers, i)
			}
		}
	}
}

// Nonzero sigma must actually spread the distribution (non-vacuity: the
// perturbation hook is wired through) and different seeds must draw
// different deviates.
func TestMCSigmaSpreads(t *testing.T) {
	p, evs := mcTestCircuit(t)
	a, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, sta.MCOptions{Samples: 32, Seed: 1, Sigma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for _, od := range a.Outputs {
		if od.Dist.Std > 0 {
			spread = true
		}
		if !(od.Dist.Min <= od.Dist.P50 && od.Dist.P50 <= od.Dist.P95 &&
			od.Dist.P95 <= od.Dist.P99 && od.Dist.P99 <= od.Dist.Max) {
			t.Fatalf("percentiles out of order for %s %v: %+v", od.Net.Name, od.Dir, od.Dist)
		}
	}
	if !spread {
		t.Fatal("sigma 0.05 produced zero spread on every output — perturbation not applied")
	}
	b, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, sta.MCOptions{Samples: 32, Seed: 2, Sigma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Outputs {
		if a.Outputs[i].Dist.Mean != b.Outputs[i].Dist.Mean {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical means — seed not wired into the deviates")
	}
}

// Corner presets run as degenerate deterministic analyses: typ is
// bit-identical to Analyze, slow arrives later than fast.
func TestMCCorners(t *testing.T) {
	p, evs := mcTestCircuit(t)
	res, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, sta.MCOptions{
		Samples: 1, Sigma: 0, Corners: []string{"slow", "typ", "fast"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corners) != 3 {
		t.Fatalf("got %d corner runs", len(res.Corners))
	}
	ref, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*sta.Result{}
	for _, cr := range res.Corners {
		byName[cr.Name] = cr.Result
	}
	slower, strict := 0, 0
	for _, po := range p.Circuit().POs {
		if typ, ok := byName["typ"].Latest(po); ok {
			refA, _ := ref.Latest(po)
			if typ.Time != refA.Time || typ.TT != refA.TT {
				t.Fatalf("typ corner differs from deterministic analysis on %s", po.Name)
			}
		}
		sl, okS := byName["slow"].Latest(po)
		fa, okF := byName["fast"].Latest(po)
		if okS && okF {
			slower++
			if sl.Time > fa.Time {
				strict++
			}
		}
	}
	if slower == 0 || strict == 0 {
		t.Fatalf("corner ordering never observed (outputs=%d, slow>fast on %d)", slower, strict)
	}
}

// Validation errors must name the offending field — the boundary-contract
// convention, table-driven over the Go API (NaN cannot transit JSON, so the
// HTTP table covers the rest).
func TestMCValidation(t *testing.T) {
	p, evs := mcTestCircuit(t)
	cases := []struct {
		name  string
		opt   sta.MCOptions
		field string
	}{
		{"zero samples", sta.MCOptions{Samples: 0, Sigma: 0.1}, "samples"},
		{"negative samples", sta.MCOptions{Samples: -5, Sigma: 0.1}, "samples"},
		{"negative sigma", sta.MCOptions{Samples: 4, Sigma: -0.1}, "sigma"},
		{"NaN sigma", sta.MCOptions{Samples: 4, Sigma: math.NaN()}, "sigma"},
		{"Inf sigma", sta.MCOptions{Samples: 4, Sigma: math.Inf(1)}, "sigma"},
		{"unknown corner", sta.MCOptions{Samples: 4, Sigma: 0.1, Corners: []string{"ss"}}, "corner"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, tc.opt)
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %q", err, tc.field)
			}
		})
	}
	bad := sta.MCOptions{Samples: 4, Sigma: 0.1}
	bad.Perturb = func(int32) float64 { return 2 }
	if _, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, bad); err == nil || !strings.Contains(err.Error(), "Perturb") {
		t.Fatalf("caller-supplied Perturb should be rejected, got %v", err)
	}
}

// Cancellation aborts the sample loop with the context error.
func TestMCContextCancel(t *testing.T) {
	p, evs := mcTestCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AnalyzeMC(ctx, evs, sta.Proximity, sta.MCOptions{Samples: 64, Sigma: 0.05}); err == nil {
		t.Fatal("pre-canceled context should abort the MC run")
	}
}

// The MC phase timer lands in the result and respects Sum() <= Wall.
func TestMCPhaseAccounting(t *testing.T) {
	p, evs := mcTestCircuit(t)
	res, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, sta.MCOptions{Samples: 8, Sigma: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phases.Sum() > res.Stats.Wall {
		t.Fatalf("phase sum %v exceeds wall %v", res.Stats.Phases.Sum(), res.Stats.Wall)
	}
	if res.Stats.GatesEvaluated == 0 {
		t.Fatal("no gates evaluated recorded")
	}
}
