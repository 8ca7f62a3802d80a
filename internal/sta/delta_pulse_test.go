package sta_test

// Filtered-delta edge shapes. Each test drives AnalyzeDelta over a
// pulse-filtered baseline through one of the shapes the naive
// arrival-bit-equality cutoff gets wrong, and demands the result be
// bit-identical to a fresh full filtered analysis of the edited vector —
// arrivals, PulseInfo records and pulse counters alike.

import (
	"context"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// requireFilteredDeltaIdentical compares a delta result against a fresh full
// filtered analysis of the edited vector, bit for bit: every net's arrivals,
// every pulse verdict, and the pulse counters.
func requireFilteredDeltaIdentical(t *testing.T, p *sta.Compiled, got *sta.Result, edited []sta.PIEvent) *sta.Result {
	t.Helper()
	want, err := p.Analyze(context.Background(), edited, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Circuit()
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			wa, okW := want.Arrival(n, dir)
			ga, okG := got.Arrival(n, dir)
			if okW != okG || wa != ga {
				t.Fatalf("net %s %v: delta %+v (present=%v), full filtered %+v (present=%v)",
					name, dir, ga, okG, wa, okW)
			}
		}
		wp, okW := want.Pulse(n)
		gp, okG := got.Pulse(n)
		if okW != okG || wp != gp {
			t.Fatalf("net %s: delta verdict %+v (recorded=%v), full filtered %+v (recorded=%v)",
				name, gp, okG, wp, okW)
		}
	}
	if got.Stats.PulsesFiltered != want.Stats.PulsesFiltered ||
		got.Stats.PulsesDegraded != want.Stats.PulsesDegraded ||
		got.Stats.PulsesUnjudged != want.Stats.PulsesUnjudged {
		t.Fatalf("pulse counters: delta %d/%d/%d, full filtered %d/%d/%d",
			got.Stats.PulsesFiltered, got.Stats.PulsesDegraded, got.Stats.PulsesUnjudged,
			want.Stats.PulsesFiltered, want.Stats.PulsesDegraded, want.Stats.PulsesUnjudged)
	}
	if got.Stats.Evaluations != want.Stats.Evaluations ||
		got.Stats.ProximityEvals != want.Stats.ProximityEvals ||
		got.Stats.SingleArcEvals != want.Stats.SingleArcEvals ||
		got.Stats.GatesEvaluated != want.Stats.GatesEvaluated {
		t.Fatalf("evaluation counters: delta evals=%d prox=%d single=%d gates=%d, full filtered evals=%d prox=%d single=%d gates=%d",
			got.Stats.Evaluations, got.Stats.ProximityEvals, got.Stats.SingleArcEvals, got.Stats.GatesEvaluated,
			want.Stats.Evaluations, want.Stats.ProximityEvals, want.Stats.SingleArcEvals, want.Stats.GatesEvaluated)
	}
	return want
}

// TestDeltaResurrectsAbsorbedPairByWidening: the baseline absorbed the pair
// (no committed arrivals), so with the naive cutoff a re-evaluation that
// reproduces "no arrivals vs no arrivals" would look like a dead wavefront.
// Widening the separation past the inertial delay must instead resurrect
// BOTH edges (as a degraded pair) and propagate them downstream.
func TestDeltaResurrectsAbsorbedPairByWidening(t *testing.T) {
	c, a, b, out := pulsePair(t)
	out2, err := c.AddGate("g2", "inv", "n2", out)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out2)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	p := compile(t, c)
	base, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep-50e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.PulsesFiltered != 1 {
		t.Fatalf("premise: baseline must absorb the pair, got %+v", base.Stats)
	}
	if _, ok := base.Arrival(out2, waveform.Rising); ok {
		t.Fatal("premise: absorbed pair leaked downstream in the baseline")
	}

	wide := minSep + 30e-12
	got, err := p.AnalyzeDelta(context.Background(), base, sta.Delta{Set: []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: wide},
	}}, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	requireFilteredDeltaIdentical(t, p, got,
		pulseVector(a, b, pulseTTFall, pulseTTRise, wide))
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if _, ok := got.Arrival(out, dir); !ok {
			t.Fatalf("widened pair did not resurrect the %v edge on %s", dir, out.Name)
		}
	}
	if pi, ok := got.Pulse(out); !ok || pi.Filtered || !(pi.Factor > 1) {
		t.Fatalf("widened pair should now be degraded: %+v (recorded=%v)", pi, ok)
	}
	if got.Stats.PulsesFiltered != 0 || got.Stats.PulsesDegraded != 1 {
		t.Fatalf("counters after resurrection: %d filtered / %d degraded, want 0 / 1",
			got.Stats.PulsesFiltered, got.Stats.PulsesDegraded)
	}
	// The resurrected pair reaches the inverter as a same-pin opposite-edge
	// pair — the unjudged blind spot — proving the wavefront crossed the gate.
	if pi, ok := got.Pulse(out2); !ok || !pi.Unjudged {
		t.Fatalf("resurrected pair never reached the downstream inverter: %+v (recorded=%v)", pi, ok)
	}
}

// TestDeltaResurrectsAbsorbedPairByRemove: withdrawing the blocking edge
// leaves a lone unblocking cause — no pair at all, so the verdict must be
// withdrawn and the single surviving edge committed.
func TestDeltaResurrectsAbsorbedPairByRemove(t *testing.T) {
	c, a, b, out := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	p := compile(t, c)
	base, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep-50e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.PulsesFiltered != 1 {
		t.Fatalf("premise: baseline must absorb the pair, got %+v", base.Stats)
	}

	got, err := p.AnalyzeDelta(context.Background(), base, sta.Delta{Remove: []sta.DeltaRemove{
		{Net: b, Dir: waveform.Rising},
	}}, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	// The edited vector keeps only a's falling event.
	requireFilteredDeltaIdentical(t, p, got, []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: minSep - 50e-12},
	})
	if _, ok := got.Arrival(out, waveform.Rising); !ok {
		t.Fatal("removing the blocking edge did not resurrect the rising output")
	}
	if _, ok := got.Arrival(out, waveform.Falling); ok {
		t.Fatal("falling output survives without its cause")
	}
	if _, ok := got.Pulse(out); ok {
		t.Fatal("verdict survives although the pair no longer exists")
	}
	if got.Stats.PulsesFiltered != 0 {
		t.Fatalf("PulsesFiltered=%d after the pair dissolved, want 0", got.Stats.PulsesFiltered)
	}
}

// TestDeltaReabsorbsDegradedPairByNarrowing: the baseline's pair survived
// degraded (both arrivals committed); narrowing the separation below the
// inertial delay must clear both arrivals and flip the verdict to absorbed.
func TestDeltaReabsorbsDegradedPairByNarrowing(t *testing.T) {
	c, a, b, out := pulsePair(t)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	p := compile(t, c)
	base, err := p.Analyze(context.Background(), pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
		sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.PulsesDegraded != 1 {
		t.Fatalf("premise: baseline must degrade the pair, got %+v", base.Stats)
	}

	narrow := minSep - 50e-12
	got, err := p.AnalyzeDelta(context.Background(), base, sta.Delta{Set: []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, TT: pulseTTFall, Time: narrow},
	}}, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	requireFilteredDeltaIdentical(t, p, got,
		pulseVector(a, b, pulseTTFall, pulseTTRise, narrow))
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		if arr, ok := got.Arrival(out, dir); ok {
			t.Fatalf("narrowed pair still commits a %v arrival (t=%g)", dir, arr.Time)
		}
	}
	if pi, ok := got.Pulse(out); !ok || !pi.Filtered {
		t.Fatalf("narrowed pair should be absorbed: %+v (recorded=%v)", pi, ok)
	}
	if got.Stats.PulsesFiltered != 1 || got.Stats.PulsesDegraded != 0 {
		t.Fatalf("counters after re-absorption: %d filtered / %d degraded, want 1 / 0",
			got.Stats.PulsesFiltered, got.Stats.PulsesDegraded)
	}
}

// TestDeltaInheritsUntouchedVerdict: a delta whose wavefront never reaches
// the judged gate must inherit its verdict and arrivals bit-exactly without
// re-evaluating it — the judged gate counts as reused baseline work.
func TestDeltaInheritsUntouchedVerdict(t *testing.T) {
	c, a, b, out := pulsePair(t)
	// A second, independent cone the delta edits: x,y -> nand g2 -> n2.
	x, y := c.Input("x"), c.Input("y")
	out2, err := c.AddGate("g2", "nand2", "n2", x, y)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out2)
	minSep := pulseMinSep(t, pulseTTFall, pulseTTRise)
	evs := append(pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
		sta.PIEvent{Net: x, Dir: waveform.Falling, TT: 200e-12, Time: 1e-9})
	p := compile(t, c)
	base, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.PulsesDegraded != 1 {
		t.Fatalf("premise: baseline must degrade the pair, got %+v", base.Stats)
	}
	basePI, ok := base.Pulse(out)
	if !ok {
		t.Fatal("premise: baseline carries no verdict")
	}

	got, err := p.AnalyzeDelta(context.Background(), base, sta.Delta{Set: []sta.PIEvent{
		{Net: x, Dir: waveform.Falling, TT: 200e-12, Time: 2e-9},
	}}, sta.Options{PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	edited := append(pulseVector(a, b, pulseTTFall, pulseTTRise, minSep+30e-12),
		sta.PIEvent{Net: x, Dir: waveform.Falling, TT: 200e-12, Time: 2e-9})
	requireFilteredDeltaIdentical(t, p, got, edited)
	gotPI, ok := got.Pulse(out)
	if !ok || gotPI != basePI {
		t.Fatalf("untouched gate's verdict not inherited bit-exactly: %+v vs baseline %+v (recorded=%v)",
			gotPI, basePI, ok)
	}
	if got.Stats.GatesReevaluated != 1 {
		t.Fatalf("delta re-evaluated %d gates, want only the edited cone's 1", got.Stats.GatesReevaluated)
	}
	if want := base.Stats.GatesEvaluated - 1; got.Stats.GatesReused != want {
		t.Fatalf("GatesReused=%d, want %d (everything but the edited cone, including the judged gate)",
			got.Stats.GatesReused, want)
	}
}
