package sta_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// TestCompiledMatchesAnalyze: the handle reports the schedule shape it
// captured, and its parallel and batch paths reproduce its serial Analyze
// exactly.
func TestCompiledMatchesAnalyze(t *testing.T) {
	c, err := sta.SynthRandom(32, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGates() != 1200 || p.NumLevels() < 2 || p.Circuit() != c {
		t.Fatalf("handle shape: gates=%d levels=%d", p.NumGates(), p.NumLevels())
	}
	evs := sta.SynthEvents(c, 5)
	ref, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, c, ref, got, "compiled")

	batch := [][]sta.PIEvent{evs, sta.SynthEvents(c, 6), sta.SynthEvents(c, 7)}
	results, err := p.AnalyzeBatch(context.Background(), batch, sta.Proximity, sta.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, c, ref, results[0], "compiled batch[0]")
}

// TestCompiledCancellation: an already-canceled context must abort both the
// single-vector and the batch path with a context error, not run to
// completion.
func TestCompiledCancellation(t *testing.T) {
	c, in, _, err := sta.SynthChain(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evs := []sta.PIEvent{{Net: in, Dir: waveform.Rising, Time: 0, TT: 200e-12}}
	if _, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze on canceled ctx: %v", err)
	}
	if _, err := p.AnalyzeBatch(ctx, [][]sta.PIEvent{evs, evs}, sta.Proximity, sta.Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeBatch on canceled ctx: %v", err)
	}
}

// TestWriteNetlistRoundTrip: serialize a random circuit, re-parse it over
// the same library, and require an identical levelized schedule and
// identical analysis results.
func TestWriteNetlistRoundTrip(t *testing.T) {
	c, err := sta.SynthRandom(16, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sta.WriteNetlist(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := sta.ParseNetlist(strings.NewReader(sb.String()), sta.SynthLibrary(3))
	if err != nil {
		t.Fatalf("re-parse: %v\nnetlist:\n%s", err, sb.String())
	}
	if len(c2.Gates) != len(c.Gates) || len(c2.PIs) != len(c.PIs) || len(c2.POs) != len(c.POs) {
		t.Fatalf("round trip changed shape: %d/%d gates, %d/%d PIs, %d/%d POs",
			len(c2.Gates), len(c.Gates), len(c2.PIs), len(c.PIs), len(c2.POs), len(c.POs))
	}
	evs := sta.SynthEvents(c, 3)
	evs2 := make([]sta.PIEvent, len(evs))
	for i, ev := range evs {
		evs2[i] = sta.PIEvent{Net: c2.Net(ev.Net.Name), Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
	}
	r1, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := compile(t, c2).Analyze(context.Background(), evs2, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.NetsByName() {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			a1, ok1 := r1.Arrival(c.Net(name), dir)
			a2, ok2 := r2.Arrival(c2.Net(name), dir)
			if ok1 != ok2 || (ok1 && (a1.Time != a2.Time || a1.TT != a2.TT)) {
				t.Fatalf("net %s %v: %v/%v vs %v/%v", name, dir, ok1, a1, ok2, a2)
			}
		}
	}
}

// TestEmptyBatchRejected: a batch with no vectors is a caller bug, not a
// successful empty analysis.
func TestEmptyBatchRejected(t *testing.T) {
	c, err := sta.SynthRandom(8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	if _, err := p.AnalyzeBatch(context.Background(), nil, sta.Proximity, sta.Options{}); err == nil {
		t.Error("AnalyzeBatch accepted a nil batch")
	}
	if _, err := p.AnalyzeBatch(context.Background(), [][]sta.PIEvent{}, sta.Proximity, sta.Options{}); err == nil {
		t.Error("AnalyzeBatch accepted an empty batch")
	}
}
