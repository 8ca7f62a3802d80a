package sta_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Tracing must not change results, must emit a valid nested Chrome trace,
// and the always-on phase timers must stay within the measured wall time.
func TestAnalyzeTraceAndPhases(t *testing.T) {
	c, err := sta.SynthRandom(8, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	evs := sta.SynthEvents(c, 1)
	p := compile(t, c)

	plain, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	traced, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical arrivals with and without the recorder attached.
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			a, aok := plain.Arrival(n, dir)
			b, bok := traced.Arrival(n, dir)
			if aok != bok || a.Time != b.Time || a.TT != b.TT {
				t.Fatalf("net %s: traced arrival differs from plain", name)
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evsTrace, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("engine trace invalid: %v", err)
	}
	names := map[string]bool{}
	for _, e := range evsTrace {
		if e.Ph == "X" {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"analyze", "schedule", "level 0", "commit"} {
		if !names[want] {
			t.Fatalf("trace missing span %q; have %v", want, names)
		}
	}

	// Phase invariants (both runs): non-negative, disjoint sum <= wall.
	for _, res := range []*sta.Result{plain, traced} {
		var sum int64
		for _, p := range obs.Phases() {
			d := res.Stats.Phases[p]
			if d < 0 {
				t.Fatalf("phase %v negative: %v", p, d)
			}
		}
		sum = int64(res.Stats.Phases.Sum())
		if res.Stats.Wall <= 0 {
			t.Fatalf("wall = %v", res.Stats.Wall)
		}
		if sum > int64(res.Stats.Wall) {
			t.Fatalf("phases sum %v exceeds wall %v", res.Stats.Phases.Sum(), res.Stats.Wall)
		}
	}
}

// A traced batch must record one process row per vector so the viewer
// shows the batch's parallel schedule.
func TestBatchTracePerVectorRows(t *testing.T) {
	c, err := sta.SynthRandom(6, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]sta.PIEvent{sta.SynthEvents(c, 1), sta.SynthEvents(c, 2), sta.SynthEvents(c, 3)}
	tr := obs.NewTrace()
	if _, err := compile(t, c).AnalyzeBatch(context.Background(), batch, sta.Proximity, sta.Options{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("batch trace invalid: %v", err)
	}
	pids := map[int64]bool{}
	for _, e := range evs {
		if e.Ph == "X" && e.Name == "analyze" {
			pids[e.PID] = true
		}
	}
	if len(pids) != len(batch) {
		t.Fatalf("%d analyze process rows, want one per vector (%d)", len(pids), len(batch))
	}
}
