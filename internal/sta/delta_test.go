package sta_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// applyDelta mirrors AnalyzeDelta's stimulus semantics on a plain event
// slice: removes withdraw baseline events, sets add or replace. The result
// is the "equivalent full vector" the delta result must match bit for bit.
func applyDelta(events []sta.PIEvent, delta sta.Delta) []sta.PIEvent {
	out := make([]sta.PIEvent, 0, len(events)+len(delta.Set))
	for _, ev := range events {
		drop := false
		for _, rm := range delta.Remove {
			if rm.Net == ev.Net && rm.Dir == ev.Dir {
				drop = true
			}
		}
		for _, set := range delta.Set {
			if set.Net == ev.Net && set.Dir == ev.Dir {
				drop = true
			}
		}
		if !drop {
			out = append(out, ev)
		}
	}
	return append(out, delta.Set...)
}

// checkDeltaStats asserts that every derived counter of a delta result
// matches the full re-analysis — if arrivals are bit-identical, the counts
// of what produced them must be too.
func checkDeltaStats(t *testing.T, full, delta *sta.Result) {
	t.Helper()
	if delta.Stats.Evaluations != full.Stats.Evaluations ||
		delta.Stats.ProximityEvals != full.Stats.ProximityEvals ||
		delta.Stats.SingleArcEvals != full.Stats.SingleArcEvals ||
		delta.Stats.GatesEvaluated != full.Stats.GatesEvaluated {
		t.Errorf("delta derived counters diverge: evals %d/%d prox %d/%d single %d/%d gates %d/%d",
			delta.Stats.Evaluations, full.Stats.Evaluations,
			delta.Stats.ProximityEvals, full.Stats.ProximityEvals,
			delta.Stats.SingleArcEvals, full.Stats.SingleArcEvals,
			delta.Stats.GatesEvaluated, full.Stats.GatesEvaluated)
	}
}

// TestDeltaMatchesFull: perturbing a baseline through AnalyzeDelta must be
// bit-identical to a fresh full analysis of the edited vector, in both
// modes, while actually reusing most of the baseline.
func TestDeltaMatchesFull(t *testing.T) {
	c, err := sta.SynthRandom(32, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	events := sta.SynthEvents(c, 5)
	for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
		baseline, err := p.Analyze(context.Background(), events, mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Shift three PIs, flip one direction (remove + set the opposite
		// edge), and drop one event entirely.
		delta := sta.Delta{
			Set: []sta.PIEvent{
				{Net: events[0].Net, Dir: events[0].Dir, Time: events[0].Time + 37e-12, TT: events[0].TT},
				{Net: events[7].Net, Dir: events[7].Dir, Time: events[7].Time, TT: events[7].TT * 1.5},
				{Net: events[13].Net, Dir: events[13].Dir.Opposite(), Time: events[13].Time, TT: events[13].TT},
			},
			Remove: []sta.DeltaRemove{
				{Net: events[13].Net, Dir: events[13].Dir},
				{Net: events[21].Net, Dir: events[21].Dir},
			},
		}
		// Four workers: the delta's level buckets take the parallel path.
		got, err := p.AnalyzeDelta(context.Background(), baseline, delta, sta.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v delta: %v", mode, err)
		}
		want, err := p.Analyze(context.Background(), applyDelta(events, delta), mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, c, want, got, fmt.Sprintf("%v delta-vs-full", mode))
		checkDeltaStats(t, want, got)
		if got.Stats.GatesReevaluated == 0 || got.Stats.GatesReused == 0 {
			t.Errorf("%v: expected both reuse and re-evaluation, got reeval=%d reused=%d",
				mode, got.Stats.GatesReevaluated, got.Stats.GatesReused)
		}
		if got.Stats.GatesReevaluated >= baseline.Stats.GatesEvaluated {
			t.Errorf("%v: delta re-evaluated %d gates, no better than the baseline's %d",
				mode, got.Stats.GatesReevaluated, baseline.Stats.GatesEvaluated)
		}
		if got.Stats.Phases[obs.PhaseDelta] <= 0 {
			t.Errorf("%v: delta result records no PhaseDelta time", mode)
		}
		if got.Stats.Phases.Sum() > got.Stats.Wall {
			t.Errorf("%v: phase sum %v exceeds wall %v", mode, got.Stats.Phases.Sum(), got.Stats.Wall)
		}
		if got.Mode != mode {
			t.Errorf("delta result mode %v, want baseline's %v", got.Mode, mode)
		}
		// The baseline must be untouched: re-running the same delta against
		// it must reproduce the same result (and chains must compose).
		again, err := p.AnalyzeDelta(context.Background(), baseline, delta, sta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, c, got, again, fmt.Sprintf("%v delta-repeat", mode))

		chainDelta := sta.Delta{Set: []sta.PIEvent{
			{Net: events[2].Net, Dir: events[2].Dir, Time: events[2].Time + 11e-12, TT: events[2].TT},
		}}
		chained, err := p.AnalyzeDelta(context.Background(), got, chainDelta, sta.Options{})
		if err != nil {
			t.Fatalf("%v chained delta: %v", mode, err)
		}
		wantChained, err := p.Analyze(context.Background(), applyDelta(applyDelta(events, delta), chainDelta), mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, c, wantChained, chained, fmt.Sprintf("%v delta-chain", mode))
		checkDeltaStats(t, wantChained, chained)
	}
}

// TestDeltaNoOp: a Set bit-equal to the baseline event must cut off at the
// seed — zero gates re-evaluated, result identical to the baseline.
func TestDeltaNoOp(t *testing.T) {
	c, err := sta.SynthRandom(16, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	events := sta.SynthEvents(c, 1)
	baseline, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.AnalyzeDelta(context.Background(), baseline,
		sta.Delta{Set: []sta.PIEvent{events[0], events[3]}}, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.GatesReevaluated != 0 {
		t.Errorf("no-op delta re-evaluated %d gates", got.Stats.GatesReevaluated)
	}
	if got.Stats.GatesReused != baseline.Stats.GatesEvaluated {
		t.Errorf("no-op delta reused %d gates, want all %d", got.Stats.GatesReused, baseline.Stats.GatesEvaluated)
	}
	compareResults(t, c, baseline, got, "no-op delta")
}

// TestDeltaValidation: every malformed delta is rejected with a named
// error, and none of them corrupts the baseline for later use.
func TestDeltaValidation(t *testing.T) {
	c, err := sta.SynthRandom(8, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	events := sta.SynthEvents(c, 2)
	baseline, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pi0 := events[0].Net
	internal := c.Net("n0")
	if internal == nil || c.IsPI(internal) {
		t.Fatal("test wants an internal net named n0")
	}
	absentDir := waveform.Rising
	if events[0].Dir == waveform.Rising {
		absentDir = waveform.Falling
	}
	cases := []struct {
		name  string
		delta sta.Delta
		want  string
	}{
		{"empty", sta.Delta{}, "empty delta"},
		{"set non-PI", sta.Delta{Set: []sta.PIEvent{{Net: internal, Dir: waveform.Rising, Time: 0, TT: 100e-12}}}, "non-primary-input"},
		{"remove non-PI", sta.Delta{Remove: []sta.DeltaRemove{{Net: internal, Dir: waveform.Rising}}}, "non-primary-input"},
		{"remove absent", sta.Delta{Remove: []sta.DeltaRemove{{Net: pi0, Dir: absentDir}}}, "absent"},
		{"duplicate set", sta.Delta{Set: []sta.PIEvent{
			{Net: pi0, Dir: waveform.Rising, Time: 0, TT: 100e-12},
			{Net: pi0, Dir: waveform.Rising, Time: 5e-12, TT: 100e-12},
		}}, "duplicate"},
		{"duplicate remove", sta.Delta{Remove: []sta.DeltaRemove{
			{Net: events[0].Net, Dir: events[0].Dir},
			{Net: events[0].Net, Dir: events[0].Dir},
		}}, "duplicate"},
		{"bad TT", sta.Delta{Set: []sta.PIEvent{{Net: pi0, Dir: waveform.Rising, Time: 0, TT: -1}}}, "transition time"},
		{"nil net", sta.Delta{Set: []sta.PIEvent{{Net: nil, Dir: waveform.Rising, Time: 0, TT: 100e-12}}}, "non-primary-input"},
	}
	for _, tc := range cases {
		if _, err := p.AnalyzeDelta(context.Background(), baseline, tc.delta, sta.Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := p.AnalyzeDelta(context.Background(), nil, sta.Delta{Set: events[:1]}, sta.Options{}); err == nil {
		t.Error("nil baseline accepted")
	}

	// Removing every event must be rejected like an empty vector.
	var all sta.Delta
	for _, ev := range events {
		all.Remove = append(all.Remove, sta.DeltaRemove{Net: ev.Net, Dir: ev.Dir})
	}
	if _, err := p.AnalyzeDelta(context.Background(), baseline, all, sta.Options{}); err == nil || !strings.Contains(err.Error(), "empty stimulus") {
		t.Errorf("remove-all: error %v, want empty-stimulus rejection", err)
	}

	// A baseline from a different compile (structural edit in between) is
	// rejected, not silently mis-indexed.
	if _, err := c.AddGate("extra", "inv", "extra_n", pi0); err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.AnalyzeDelta(context.Background(), baseline, sta.Delta{Set: events[:1]}, sta.Options{}); err == nil || !strings.Contains(err.Error(), "different compile") {
		t.Errorf("stale baseline: error %v, want different-compile rejection", err)
	}

	// The original baseline still works against the handle it came from.
	if _, err := p.AnalyzeDelta(context.Background(), baseline, sta.Delta{Set: []sta.PIEvent{
		{Net: pi0, Dir: events[0].Dir, Time: events[0].Time + 1e-12, TT: events[0].TT},
	}}, sta.Options{}); err != nil {
		t.Errorf("baseline rejected by its own handle after validation failures: %v", err)
	}
}

// TestDeltaCancellation: an already-canceled context aborts the walk.
func TestDeltaCancellation(t *testing.T) {
	c, in, _, err := sta.SynthChain(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	evs := []sta.PIEvent{{Net: in, Dir: waveform.Rising, Time: 0, TT: 200e-12}}
	baseline, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	delta := sta.Delta{Set: []sta.PIEvent{{Net: in, Dir: waveform.Rising, Time: 10e-12, TT: 200e-12}}}
	if _, err := p.AnalyzeDelta(ctx, baseline, delta, sta.Options{}); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("canceled delta: %v", err)
	}
	// The scratch state must be clean for the next (successful) analysis.
	got, err := p.AnalyzeDelta(context.Background(), baseline, delta, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Analyze(context.Background(), applyDelta(evs, delta), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, c, want, got, "delta after cancellation")
}

// TestDeltaRejectsBaselineAcrossForwardNetEdit: driving an existing forward
// net adds a gate without adding a net, so a baseline compiled before the
// edit indexes exactly as many nets as the handle compiled after it. It
// must still be rejected — re-timing it would leave the newly driven net
// without its arrival and the gates it feeds at their stale times.
func TestDeltaRejectsBaselineAcrossForwardNetEdit(t *testing.T) {
	c := sta.NewCircuit(sta.SynthLibrary(2))
	a, b := c.Input("a"), c.Input("b")
	fwd := c.ForwardNet("fwd")
	n1, err := c.AddGate("g1", "nand2", "n1", a, fwd)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(n1)
	events := []sta.PIEvent{
		{Net: a, Dir: waveform.Rising, Time: 0, TT: 200e-12},
		{Net: b, Dir: waveform.Rising, Time: 50e-12, TT: 200e-12},
	}
	ctx := context.Background()
	before := compile(t, c)
	baseline, err := before.Analyze(ctx, events, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nets := len(c.NetsByName())
	if _, err := c.AddGate("g2", "inv", "fwd", b); err != nil {
		t.Fatal(err)
	}
	if n := len(c.NetsByName()); n != nets {
		t.Fatalf("edit changed the net count %d -> %d; the test wants it unchanged", nets, n)
	}
	after := compile(t, c)
	nudge := sta.Delta{Set: []sta.PIEvent{{Net: a, Dir: waveform.Rising, Time: 5e-12, TT: 200e-12}}}
	if _, err := after.AnalyzeDelta(ctx, baseline, nudge, sta.Options{}); err == nil || !strings.Contains(err.Error(), "different compile") {
		t.Fatalf("pre-edit baseline: error %v, want different-compile rejection", err)
	}

	// A baseline from the post-edit handle re-times to the full answer,
	// with the newly driven net carrying its arrival.
	fresh, err := after.Analyze(ctx, events, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := after.AnalyzeDelta(ctx, fresh, nudge, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := after.Analyze(ctx, applyDelta(events, nudge), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, c, want, got, "delta after forward-net edit")
	if _, ok := got.Arrival(fwd, waveform.Falling); !ok {
		t.Fatal("newly driven net fwd has no falling arrival")
	}
}
