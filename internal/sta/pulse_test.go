package sta_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// pulsePair builds a lone nand2 over the synthetic library: inputs a (pin 0)
// and b (pin 1), output n1. A falling a unblocks the output (rising edge),
// a rising b blocks it (falling edge), so one vector carrying both produces
// an opposite-edge output pair — the engine's runt-pulse signature.
func pulsePair(t *testing.T) (c *sta.Circuit, a, b, out *sta.Net) {
	t.Helper()
	c = sta.NewCircuit(sta.SynthLibrary(2))
	a, b = c.Input("a"), c.Input("b")
	out, err := c.AddGate("g", "nand2", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out)
	return c, a, b, out
}

// pulseVector stimulates b rising at time 0 and a falling at time sep — the
// dip shape the nand's negative-going glitch model characterizes. sep is
// exactly the separation EvaluatePulse sees (falling input's crossing
// measured from the rising input's).
func pulseVector(a, b *sta.Net, ttFall, ttRise, sep float64) []sta.PIEvent {
	return []sta.PIEvent{
		{Net: b, Dir: waveform.Rising, TT: ttRise, Time: 0},
		{Net: a, Dir: waveform.Falling, TT: ttFall, Time: sep},
	}
}

// pulseMinSep reads the synthetic nand2's inertial delay for the (fall=0,
// rise=1) pair at the given transition times, straight from the same model
// the library calculators wrap.
func pulseMinSep(t *testing.T, ttFall, ttRise float64) float64 {
	t.Helper()
	m := macromodel.SynthModel("nand", 2)
	gm := m.Glitch(0, 1)
	if gm == nil {
		t.Fatal("synthetic nand2 carries no glitch model for pair (0,1)")
	}
	minSep, ok := gm.MinSeparation(ttFall, ttRise, m.Th)
	if !ok {
		t.Fatalf("synthetic glitch grid never completes a transition (minSep=%g)", minSep)
	}
	return minSep
}

const (
	pulseTTFall = 300e-12
	pulseTTRise = 300e-12
)

func TestPulseFilterAbsorbs(t *testing.T) {
	c, a, b, out := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	evs := pulseVector(a, b, pulseTTFall, pulseTTRise, minSep-50e-12)

	p := compile(t, c)
	// Without filtering the pair propagates as two full-swing arrivals.
	off, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if _, ok := off.Arrival(out, dir); !ok {
			t.Fatalf("filtering off: expected %v arrival on %s", dir, out.Name)
		}
	}
	if off.Stats.PulsesFiltered != 0 || off.Stats.PulsesDegraded != 0 {
		t.Fatalf("filtering off: pulse counters moved (%d filtered, %d degraded)",
			off.Stats.PulsesFiltered, off.Stats.PulsesDegraded)
	}
	if _, ok := off.Pulse(out); ok {
		t.Fatal("filtering off: verdict recorded")
	}

	on, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if arr, ok := on.Arrival(out, dir); ok {
			t.Fatalf("runt pulse below inertial delay propagated a %v arrival (t=%g)", dir, arr.Time)
		}
	}
	if on.Stats.PulsesFiltered != 1 || on.Stats.PulsesDegraded != 0 {
		t.Fatalf("want 1 filtered / 0 degraded, got %d / %d",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	pi, ok := on.Pulse(out)
	if !ok || !pi.Filtered {
		t.Fatalf("want filtered verdict on %s, got %+v (recorded=%v)", out.Name, pi, ok)
	}
	if pi.FallPin != 0 || pi.RisePin != 1 {
		t.Fatalf("verdict names pair (fall=%d, rise=%d), want (0, 1)", pi.FallPin, pi.RisePin)
	}
	if got := minSep - 50e-12; pi.Sep != got {
		t.Fatalf("verdict separation %g, want %g", pi.Sep, got)
	}
	if !pi.MinSepOK || pi.Sep >= pi.MinSep {
		t.Fatalf("filtered verdict not below its threshold: sep=%g minSep=%g ok=%v",
			pi.Sep, pi.MinSep, pi.MinSepOK)
	}
	if !on.PulseFiltering() || off.PulseFiltering() {
		t.Fatal("Result.PulseFiltering does not reflect the analysis options")
	}
}

func TestPulseFilterDegrades(t *testing.T) {
	c, a, b, out := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	evs := pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12)

	p := compile(t, c)
	off, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.PulsesFiltered != 0 || on.Stats.PulsesDegraded != 1 {
		t.Fatalf("want 0 filtered / 1 degraded, got %d / %d",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	pi, ok := on.Pulse(out)
	if !ok || pi.Filtered {
		t.Fatalf("want degraded verdict, got %+v (recorded=%v)", pi, ok)
	}
	if !(pi.Factor > 1) || math.IsInf(pi.Factor, 1) || math.IsNaN(pi.Factor) {
		t.Fatalf("degradation factor %g not a finite value > 1", pi.Factor)
	}
	// Arrival times are untouched; the leading edge's transition time is
	// scaled by exactly the recorded factor, the trailing edge is identical.
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		want, okOff := off.Arrival(out, dir)
		got, okOn := on.Arrival(out, dir)
		if !okOff || !okOn {
			t.Fatalf("%v arrival missing (off=%v on=%v)", dir, okOff, okOn)
		}
		if got.Time != want.Time {
			t.Fatalf("%v arrival time moved: %g -> %g", dir, want.Time, got.Time)
		}
		wantTT := want.TT
		if dir == pi.LeadDir {
			wantTT = want.TT * pi.Factor
		}
		if got.TT != wantTT {
			t.Fatalf("%v transition time %g, want %g (factor %g on leading %v)",
				dir, got.TT, wantTT, pi.Factor, pi.LeadDir)
		}
	}
}

// TestPulseFilterPolarityMismatch flips the pair so the rising output edge
// leads: the nand's characterized glitch is a negative-going dip (falling
// edge first), so the filter must leave the mismatched pair untouched.
func TestPulseFilterPolarityMismatch(t *testing.T) {
	c, a, b, out := pulsePair(t)
	// a falls well before b rises: the output's rising edge leads by a wide
	// margin regardless of the two arcs' delay difference.
	evs := []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: 0},
		{Net: b, Dir: waveform.Rising, TT: pulseTTRise, Time: 2e-9},
	}
	p := compile(t, c)
	off, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	ar, okr := on.Arrival(out, waveform.Rising)
	af, okf := on.Arrival(out, waveform.Falling)
	if !okr || !okf {
		t.Fatalf("mismatched-polarity pair lost arrivals (rise=%v fall=%v)", okr, okf)
	}
	if !(ar.Time < af.Time) {
		t.Fatalf("test premise broken: rising edge (%g) does not lead falling (%g)", ar.Time, af.Time)
	}
	if on.Stats.PulsesFiltered != 0 || on.Stats.PulsesDegraded != 0 {
		t.Fatalf("mismatched polarity judged: %d filtered, %d degraded",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	if _, ok := on.Pulse(out); ok {
		t.Fatal("untouched pair left a verdict record")
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		want, _ := off.Arrival(out, dir)
		got, _ := on.Arrival(out, dir)
		if got != want {
			t.Fatalf("%v arrival changed with filtering on: %+v -> %+v", dir, want, got)
		}
	}
}

// norPulsePair builds a lone nor2 over a synthetic positive-going library:
// a falling a (pin 0) unblocks the output (rising edge), a rising b (pin 1)
// blocks it (falling edge) — the bump shape the nor's glitch model
// characterizes, with the falling input LEADING the rising one.
func norPulsePair(t *testing.T) (c *sta.Circuit, a, b, out *sta.Net) {
	t.Helper()
	lib := sta.NewLibrary()
	lib.Add("nor2", core.NewCalculator(macromodel.SynthModel("nor", 2)))
	c = sta.NewCircuit(lib)
	a, b = c.Input("a"), c.Input("b")
	out, err := c.AddGate("g", "nor2", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out)
	return c, a, b, out
}

// norPulseVector stimulates a falling at time 0 and b rising at time width:
// the pair's raw separation is cross(fall) − cross(rise) = −width, and width
// is the pulse-width orientation the verdict judges in.
func norPulseVector(a, b *sta.Net, ttFall, ttRise, width float64) []sta.PIEvent {
	return []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, TT: ttFall, Time: 0},
		{Net: b, Dir: waveform.Rising, TT: ttRise, Time: width},
	}
}

// norPulseMinWidth reads the synthetic nor2's inertial pulse width for the
// (fall=0, rise=1) pair straight from the model.
func norPulseMinWidth(t *testing.T, ttFall, ttRise float64) float64 {
	t.Helper()
	m := macromodel.SynthModel("nor", 2)
	gm := m.Glitch(0, 1)
	if gm == nil {
		t.Fatal("synthetic nor2 carries no glitch model for pair (0,1)")
	}
	minW, ok := gm.MinSeparation(ttFall, ttRise, m.Th)
	if !ok {
		t.Fatalf("synthetic nor glitch grid never completes a transition (minWidth=%g)", minW)
	}
	return minW
}

// TestPulseFilterNorJudges: the positive-going polarity end to end — a
// narrow NOR bump is absorbed, a wide one survives with a degraded leading
// rising edge. Before the width-oriented boundary this polarity filtered at
// EVERY separation (the bisection bracket assumed NAND orientation),
// silently dropping full-swing transitions.
func TestPulseFilterNorJudges(t *testing.T) {
	c, a, b, out := norPulsePair(t)
	minW := norPulseMinWidth(t, pulseTTFall, pulseTTRise)

	p := compile(t, c)
	// Narrow bump: absorbed, nothing commits.
	on, err := p.Analyze(context.Background(), norPulseVector(a, b, pulseTTFall, pulseTTRise, minW-50e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.PulsesFiltered != 1 || on.Stats.PulsesDegraded != 0 {
		t.Fatalf("narrow bump: want 1 filtered / 0 degraded, got %d / %d",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if arr, ok := on.Arrival(out, dir); ok {
			t.Fatalf("narrow nor bump propagated a %v arrival (t=%g)", dir, arr.Time)
		}
	}
	pi, ok := on.Pulse(out)
	if !ok || !pi.Filtered {
		t.Fatalf("want filtered verdict on %s, got %+v (recorded=%v)", out.Name, pi, ok)
	}
	if pi.LeadDir != waveform.Rising {
		t.Fatalf("nor bump leading edge %v, want rising", pi.LeadDir)
	}
	if want := minW - 50e-12; pi.Sep != want {
		t.Fatalf("verdict width %g, want %g", pi.Sep, want)
	}
	if !pi.MinSepOK || pi.Sep >= pi.MinSep {
		t.Fatalf("filtered verdict not below its boundary: width=%g minWidth=%g ok=%v",
			pi.Sep, pi.MinSep, pi.MinSepOK)
	}
	// The filtered gate's evaluation work still counts.
	if on.Stats.GatesEvaluated != 1 || on.Stats.Evaluations != 2 {
		t.Fatalf("filtered gate dropped from eval counters: %d gates / %d evals, want 1 / 2",
			on.Stats.GatesEvaluated, on.Stats.Evaluations)
	}

	// Wide bump: survives, leading rising edge degraded by the swing deficit.
	off, err := p.Analyze(context.Background(), norPulseVector(a, b, pulseTTFall, pulseTTRise, minW+30e-12),
		sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err = p.Analyze(context.Background(), norPulseVector(a, b, pulseTTFall, pulseTTRise, minW+30e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.PulsesFiltered != 0 || on.Stats.PulsesDegraded != 1 {
		t.Fatalf("wide bump: want 0 filtered / 1 degraded, got %d / %d",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	pi, ok = on.Pulse(out)
	if !ok || pi.Filtered {
		t.Fatalf("want degraded verdict, got %+v (recorded=%v)", pi, ok)
	}
	if !(pi.Factor > 1) || math.IsInf(pi.Factor, 1) || math.IsNaN(pi.Factor) {
		t.Fatalf("degradation factor %g not a finite value > 1", pi.Factor)
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		want, okOff := off.Arrival(out, dir)
		got, okOn := on.Arrival(out, dir)
		if !okOff || !okOn {
			t.Fatalf("%v arrival missing (off=%v on=%v)", dir, okOff, okOn)
		}
		wantTT := want.TT
		if dir == pi.LeadDir {
			wantTT = want.TT * pi.Factor
		}
		if got.Time != want.Time || got.TT != wantTT {
			t.Fatalf("%v arrival %+v, want t=%g tt=%g (factor %g on leading %v)",
				dir, got, want.Time, wantTT, pi.Factor, pi.LeadDir)
		}
	}
}

// TestPulseFilterNorPolarityMismatch: rising input well before the falling
// one puts the falling output edge in the lead — not the bump shape the
// nor's positive-going glitch characterizes, so the pair must pass
// untouched.
func TestPulseFilterNorPolarityMismatch(t *testing.T) {
	c, a, b, out := norPulsePair(t)
	evs := []sta.PIEvent{
		{Net: b, Dir: waveform.Rising, TT: pulseTTRise, Time: 0},
		{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: 2e-9},
	}
	p := compile(t, c)
	on, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	ar, okr := on.Arrival(out, waveform.Rising)
	af, okf := on.Arrival(out, waveform.Falling)
	if !okr || !okf {
		t.Fatalf("mismatched-polarity pair lost arrivals (rise=%v fall=%v)", okr, okf)
	}
	if !(af.Time < ar.Time) {
		t.Fatalf("test premise broken: falling edge (%g) does not lead rising (%g)", af.Time, ar.Time)
	}
	if on.Stats.PulsesFiltered != 0 || on.Stats.PulsesDegraded != 0 {
		t.Fatalf("mismatched polarity judged: %d filtered, %d degraded",
			on.Stats.PulsesFiltered, on.Stats.PulsesDegraded)
	}
	if _, ok := on.Pulse(out); ok {
		t.Fatal("untouched pair left a verdict record")
	}
}

func TestPulseFilterBatchPropagates(t *testing.T) {
	c, a, b, _ := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	batch := [][]sta.PIEvent{
		pulseVector(a, b, pulseTTFall, pulseTTRise, minSep-50e-12),
		pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
	}
	p := compile(t, c)
	results, err := p.AnalyzeBatch(context.Background(), batch, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Stats.PulsesFiltered; got != 1 {
		t.Errorf("batch vector 0: %d filtered, want 1 (PulseFiltering dropped on the per-vector options?)", got)
	}
	if got := results[1].Stats.PulsesDegraded; got != 1 {
		t.Errorf("batch vector 1: %d degraded, want 1", got)
	}
}

// TestPulseFilterDeltaMismatchRejected: pulse filtering is inherited from
// the baseline like the analysis mode — the delta option must agree in BOTH
// directions, because a delta cannot change the analysis semantics midway.
func TestPulseFilterDeltaMismatchRejected(t *testing.T) {
	c, a, b, _ := pulsePair(t)
	evs := pulseVector(a, b, pulseTTFall, pulseTTRise, 5e-9)
	p := compile(t, c)
	base, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sta.Delta{Set: []sta.PIEvent{{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: 6e-9}}}
	if _, err := p.AnalyzeDelta(context.Background(), base, d, sta.Options{PulseFiltering: true}); err == nil ||
		!strings.Contains(err.Error(), "PulseFiltering") {
		t.Errorf("delta with PulseFiltering over an unfiltered baseline accepted (err=%v)", err)
	}
	filtered, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AnalyzeDelta(context.Background(), filtered, d, sta.Options{}); err == nil ||
		!strings.Contains(err.Error(), "PulseFiltering") {
		t.Errorf("unfiltered delta over a pulse-filtered baseline accepted (err=%v)", err)
	}
}

// TestPulseFilterMCSigmaZero: a sigma-0 filtered MC run must be bit-identical
// to the deterministic filtered Analyze — absorbed pairs absent from every
// sample's distributions, pulse counters summed across samples, and the
// glitch-criticality vote unanimous.
func TestPulseFilterMCSigmaZero(t *testing.T) {
	c, err := sta.SynthRandom(40, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	evs := runtPulseStimulus(c, 7)
	p := compile(t, c)
	ref, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.PulsesFiltered == 0 || ref.Stats.PulsesDegraded == 0 {
		t.Fatalf("stimulus judged %d filtered / %d degraded pulses — MC identity check is vacuous",
			ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded)
	}
	opt := sta.MCOptions{Samples: 3, Sigma: 0}
	opt.PulseFiltering = true
	opt.Workers = 2
	res, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PulsesFiltered != 3*ref.Stats.PulsesFiltered ||
		res.Stats.PulsesDegraded != 3*ref.Stats.PulsesDegraded ||
		res.Stats.PulsesUnjudged != 3*ref.Stats.PulsesUnjudged {
		t.Fatalf("sigma-0 pulse counters %d/%d/%d, want 3x the deterministic %d/%d/%d",
			res.Stats.PulsesFiltered, res.Stats.PulsesDegraded, res.Stats.PulsesUnjudged,
			ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded, ref.Stats.PulsesUnjudged)
	}
	for _, od := range res.Outputs {
		a, ok := ref.Arrival(od.Net, od.Dir)
		if !ok {
			t.Fatalf("MC reports %s %v but filtered deterministic analysis has no arrival (absorbed pair leaked into a sample?)",
				od.Net.Name, od.Dir)
		}
		if od.Dist.N != 3 || od.Dist.Min != a.Time || od.Dist.Max != a.Time {
			t.Fatalf("%s %v: sigma-0 dist %+v != filtered deterministic arrival %v",
				od.Net.Name, od.Dir, od.Dist, a.Time)
		}
	}
	if len(res.GlitchCriticality) == 0 {
		t.Fatal("no glitch-criticality entries despite judged pulses")
	}
	absorbedGates, degradedGates := 0, 0
	for _, gc := range res.GlitchCriticality {
		// Every sample is identical, so each judged gate's vote is unanimous.
		switch {
		case gc.Absorbed == res.Samples && gc.Degraded == 0 && gc.PAbsorbed == 1:
			absorbedGates++
		case gc.Degraded == res.Samples && gc.Absorbed == 0 && gc.PDegraded == 1:
			degradedGates++
		default:
			t.Fatalf("sigma-0 glitch criticality for %s not unanimous: %+v", gc.Gate.Name, gc)
		}
	}
	if absorbedGates != ref.Stats.PulsesFiltered || degradedGates != ref.Stats.PulsesDegraded {
		t.Fatalf("glitch criticality covers %d absorbed / %d degraded gates, deterministic run judged %d / %d",
			absorbedGates, degradedGates, ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded)
	}
}

// TestPulseFilterMCWorkerInvariance: at fixed seed and nonzero sigma the
// glitch-criticality aggregate (and the summed pulse counters) must be
// bit-identical at every worker count — the votes are atomic accumulations
// of per-sample verdicts that are pure functions of (seed, sample, gate).
func TestPulseFilterMCWorkerInvariance(t *testing.T) {
	c, err := sta.SynthRandom(40, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	evs := runtPulseStimulus(c, 7)
	base := sta.MCOptions{Samples: 24, Seed: 1234, Sigma: 0.06}
	base.PulseFiltering = true
	base.Workers = 1
	p := compile(t, c)
	ref, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.PulsesFiltered == 0 || ref.Stats.PulsesDegraded == 0 {
		t.Fatalf("perturbed samples judged %d filtered / %d degraded pulses — invariance check is vacuous",
			ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded)
	}
	flips := 0
	for _, gc := range ref.GlitchCriticality {
		if n := gc.Absorbed + gc.Degraded; n > 0 && (gc.Absorbed < n || gc.Degraded < n) && n < ref.Samples {
			flips++
		}
		if gc.Absorbed > 0 && gc.Degraded > 0 {
			flips++ // variation moved the pair across the inertial boundary
		}
	}
	for _, workers := range []int{3, 5} {
		opt := base
		opt.Workers = workers
		got, err := p.AnalyzeMC(context.Background(), evs, sta.Proximity, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.PulsesFiltered != ref.Stats.PulsesFiltered ||
			got.Stats.PulsesDegraded != ref.Stats.PulsesDegraded ||
			got.Stats.PulsesUnjudged != ref.Stats.PulsesUnjudged {
			t.Fatalf("workers=%d: pulse counters %d/%d/%d, want %d/%d/%d", workers,
				got.Stats.PulsesFiltered, got.Stats.PulsesDegraded, got.Stats.PulsesUnjudged,
				ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded, ref.Stats.PulsesUnjudged)
		}
		if len(got.GlitchCriticality) != len(ref.GlitchCriticality) {
			t.Fatalf("workers=%d: %d glitch-criticality entries, want %d",
				workers, len(got.GlitchCriticality), len(ref.GlitchCriticality))
		}
		for i, gc := range got.GlitchCriticality {
			rg := ref.GlitchCriticality[i]
			if gc.Gate != rg.Gate || gc.Absorbed != rg.Absorbed || gc.Degraded != rg.Degraded ||
				gc.PAbsorbed != rg.PAbsorbed || gc.PDegraded != rg.PDegraded {
				t.Fatalf("workers=%d: glitch criticality %d differs: %+v vs %+v", workers, i, gc, rg)
			}
		}
	}
}

// TestPulseFilterUnjudgedChain: the multi-level chaining blind spot made
// observable. A degraded pulse survives the nand and arrives at a downstream
// inverter as an opposite-edge pair on its single input pin; Glitch(0, 0) is
// never characterized, so the pair propagates untouched — but now counted
// (Stats.PulsesUnjudged) and recorded, with Explain naming the pin pair.
func TestPulseFilterUnjudgedChain(t *testing.T) {
	c, a, b, out := pulsePair(t)
	out2, err := c.AddGate("g2", "inv", "n2", out)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out2)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	p := compile(t, c)
	res, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PulsesDegraded != 1 || res.Stats.PulsesUnjudged != 1 {
		t.Fatalf("want 1 degraded (nand) + 1 unjudged (inv), got %d degraded / %d unjudged",
			res.Stats.PulsesDegraded, res.Stats.PulsesUnjudged)
	}
	pi, ok := res.Pulse(out2)
	if !ok || !pi.Unjudged {
		t.Fatalf("inverter output carries no unjudged record: %+v (recorded=%v)", pi, ok)
	}
	if pi.FallPin != 0 || pi.RisePin != 0 {
		t.Fatalf("unjudged record names pin pair (fall=%d, rise=%d), want the single pin (0, 0)", pi.FallPin, pi.RisePin)
	}
	if pi.Factor != 1 || pi.Filtered {
		t.Fatalf("unjudged record must be untouched (factor 1, not filtered): %+v", pi)
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if _, ok := res.Arrival(out2, dir); !ok {
			t.Fatalf("unjudged pair lost its %v arrival", dir)
		}
	}
	ne, err := sta.Explain(res, out2)
	if err != nil {
		t.Fatalf("explain of an unjudged output reported staleness: %v", err)
	}
	var sb strings.Builder
	ne.Format(&sb)
	if !strings.Contains(sb.String(), "runt pulse unjudged") || !strings.Contains(sb.String(), "fall pin 0, rise pin 0") {
		t.Errorf("unjudged report missing the blind-spot note:\n%s", sb.String())
	}
}

// TestBatchPerturbPropagates mirrors TestPulseFilterBatchPropagates for the
// perturbation hook: AnalyzeBatch used to rebuild the per-vector Options
// field-by-field and silently dropped Perturb, returning unperturbed results
// with no error.
func TestBatchPerturbPropagates(t *testing.T) {
	c, err := sta.SynthRandom(12, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	evs := sta.SynthEvents(c, 3)
	perturb := func(gi int32) float64 { return 1 + 0.01*float64(gi%7+1) }
	p := compile(t, c)
	want, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1, Perturb: perturb})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.AnalyzeBatch(context.Background(), [][]sta.PIEvent{evs, evs}, sta.Proximity, sta.Options{Perturb: perturb})
	if err != nil {
		t.Fatal(err)
	}
	vacuous := true
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			wantA, okW := want.Arrival(n, dir)
			if pa, okP := plain.Arrival(n, dir); okP != okW || pa != wantA {
				vacuous = false
			}
			for vi, res := range results {
				got, okG := res.Arrival(n, dir)
				if okG != okW || got != wantA {
					t.Fatalf("batch vector %d: net %s %v: %+v (present=%v), want %+v (present=%v) — Perturb dropped on the per-vector options?",
						vi, name, dir, got, okG, wantA, okW)
				}
			}
		}
	}
	if vacuous {
		t.Fatal("perturbation changed nothing — the regression check is vacuous")
	}
}

// TestPulseFilterExplain checks the staleness carve-out and the rendered
// story: a degraded output explains without a spurious mismatch, a filtered
// one reports the absorbed pair instead of "no arrivals".
func TestPulseFilterExplain(t *testing.T) {
	c, a, b, out := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)

	p := compile(t, c)
	degraded, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Stats.PulsesDegraded != 1 {
		t.Fatalf("premise: want a degraded pulse, got %+v", degraded.Stats)
	}
	ne, err := sta.Explain(degraded, out)
	if err != nil {
		t.Fatalf("explain of a degraded output reported staleness: %v", err)
	}
	if ne.Pulse == nil || ne.Pulse.Filtered {
		t.Fatalf("explain carries no degraded verdict: %+v", ne.Pulse)
	}
	var sb strings.Builder
	ne.Format(&sb)
	if !strings.Contains(sb.String(), "runt pulse degraded") {
		t.Errorf("degraded report missing the pulse story:\n%s", sb.String())
	}
	if past := (ne.Pulse.Sep - ne.Pulse.MinSep) * 1e12; past <= 0 ||
		!strings.Contains(sb.String(), fmt.Sprintf("%.2fps past the pair's inertial delay", past)) {
		t.Errorf("degraded report does not state how far past the inertial delay (%.2fps):\n%s", past, sb.String())
	}

	filtered, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep-50e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Stats.PulsesFiltered != 1 {
		t.Fatalf("premise: want a filtered pulse, got %+v", filtered.Stats)
	}
	ne, err = sta.Explain(filtered, out)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Pulse == nil || !ne.Pulse.Filtered {
		t.Fatalf("explain carries no filtered verdict: %+v", ne.Pulse)
	}
	if len(ne.Dirs) != 0 {
		t.Errorf("filtered output still explains %d directions", len(ne.Dirs))
	}
	sb.Reset()
	ne.Format(&sb)
	report := sb.String()
	if !strings.Contains(report, "runt pulse absorbed") {
		t.Errorf("filtered report missing the absorption story:\n%s", report)
	}
	// The pair is BELOW the inertial delay, so the distance must read as a
	// positive shortfall — the old "margin" (Sep − MinSep) printed negative.
	if short := (ne.Pulse.MinSep - ne.Pulse.Sep) * 1e12; short <= 0 ||
		!strings.Contains(report, fmt.Sprintf("shortfall %.2fps", short)) {
		t.Errorf("absorbed report missing positive shortfall %.2fps:\n%s", short, report)
	}
	if strings.Contains(report, "shortfall -") || strings.Contains(report, "margin") {
		t.Errorf("absorbed report still phrases the distance as a (negative) margin:\n%s", report)
	}
	if strings.Contains(report, "no arrivals in this analysis") {
		t.Errorf("filtered report claims no arrivals (the pulse was judged, not absent):\n%s", report)
	}
}

// runtPulseStimulus builds a runt-heavy stimulus: one event per PI, with
// adjacent PIs alternating direction inside a tight arrival window, so
// reconvergent gates see opposite-edge pairs at characterized separations.
func runtPulseStimulus(c *sta.Circuit, seed int64) []sta.PIEvent {
	evs := sta.SynthEvents(c, seed)
	for i := range evs {
		// Compress arrivals into a tight window so opposite-edge pairs on
		// reconvergent outputs land within characterized separations.
		evs[i].Time = float64(i%5) * 40e-12
		if i%2 == 0 {
			evs[i].Dir = waveform.Rising
		} else {
			evs[i].Dir = waveform.Falling
		}
	}
	return evs
}
