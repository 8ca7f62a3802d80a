package sta

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/waveform"
)

// TestPerGateKernelAllocFree: on the tiled fixture's runt-heavy vector the
// per-gate kernel allocates nothing — Calculator.Evaluate on every gate
// arc, evalGate and the walk's runGate on every gate (proximity and
// conventional, with and without a variation multiplier), and
// core.EvaluatePulse on every pair pulse filtering judged.
func TestPerGateKernelAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, evs := getGlitchBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(context.Background(), evs, Proximity, Options{Workers: 1, PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}

	type arc struct {
		calc *core.Calculator
		evs  []core.InputEvent
	}
	type pair struct {
		g                   *Gate
		fallPin, risePin    int
		ttFall, ttRise, sep float64
	}
	var arcs []arc
	var pairs []pair
	multi := 0
	for _, g := range c.Gates {
		for _, out := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			var e []core.InputEvent
			for pin, n := range g.In {
				if a, ok := res.Arrival(n, out.Opposite()); ok {
					e = append(e, core.InputEvent{Pin: pin, Dir: out.Opposite(), TT: a.TT, Cross: a.Time})
				}
			}
			if len(e) > 0 {
				arcs = append(arcs, arc{g.Calc, e})
			}
			if len(e) > 1 {
				multi++
			}
		}
		if pi, ok := res.Pulse(g.Out); ok && !pi.Unjudged {
			f, _ := res.Arrival(g.In[pi.FallPin], waveform.Falling)
			r, _ := res.Arrival(g.In[pi.RisePin], waveform.Rising)
			pairs = append(pairs, pair{g, pi.FallPin, pi.RisePin, f.TT, r.TT, f.Time - r.Time})
		}
	}
	if multi == 0 || len(pairs) == 0 {
		t.Fatalf("fixture too thin: %d multi-input arcs, %d judged pairs", multi, len(pairs))
	}

	if allocs := testing.AllocsPerRun(3, func() {
		for _, a := range arcs {
			if _, err := a.calc.Evaluate(a.evs); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("Calculator.Evaluate allocates %.0f objects over %d arcs", allocs, len(arcs))
	}
	var buf []core.InputEvent
	for _, mode := range []Mode{Proximity, Conventional} {
		for _, mult := range []float64{1, 1.07} {
			if allocs := testing.AllocsPerRun(3, func() {
				for _, g := range c.Gates {
					if o := evalGate(g, res, mode, &buf, mult); o.err != nil {
						t.Fatal(o.err)
					}
				}
			}); allocs != 0 {
				t.Errorf("evalGate (%v, multiplier %g) allocates %.0f objects over %d gates", mode, mult, allocs, len(c.Gates))
			}
		}
	}
	perturb := func(int32) float64 { return 0.95 }
	if allocs := testing.AllocsPerRun(3, func() {
		for gi := range p.gateList {
			if o := p.runGate(int32(gi), res, perturb, &buf); o.err != nil {
				t.Fatal(o.err)
			}
		}
	}); allocs != 0 {
		t.Errorf("runGate allocates %.0f objects over %d gates", allocs, len(p.gateList))
	}
	if allocs := testing.AllocsPerRun(3, func() {
		for _, pr := range pairs {
			if _, ok := core.EvaluatePulse(pr.g.Calc.Model, pr.fallPin, pr.risePin, pr.ttFall, pr.ttRise, pr.sep); !ok {
				t.Fatal("judged pair lost its glitch model")
			}
		}
	}); allocs != 0 {
		t.Errorf("core.EvaluatePulse allocates %.0f objects over %d pairs", allocs, len(pairs))
	}
}
