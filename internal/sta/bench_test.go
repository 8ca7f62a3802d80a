package sta

// The bench fixture: the 12k-gate tiled netlist (240 independent tiles of
// 50 gates over 8 PIs each) and the operations that the benchmarks below
// and TestBenchGuard's rows time on it. A benchmark and a row that name the
// same operation run the same closure. This file lives in package sta (not
// sta_test) so the package's internal allocation tests share the fixture.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/waveform"
)

const (
	benchTiles        = 240
	benchPIsPerTile   = 8
	benchGatesPerTile = 50
	mcBenchSamples    = 1024
	mcBenchSigma      = 0.03
)

var (
	benchOnce sync.Once
	benchC    *Circuit
	benchRunt []PIEvent
	benchErr  error
)

// getMCBench returns the tiled netlist with a tile-local stimulus: the
// shape statistical sweeps run in practice — a partial vector whose cone
// is small while the compile cost spans the whole netlist.
func getMCBench(tb testing.TB) (*Circuit, []PIEvent) {
	tb.Helper()
	benchOnce.Do(func() {
		benchC, benchErr = SynthTiled(benchTiles, benchPIsPerTile, benchGatesPerTile, 17)
		if benchErr != nil {
			return
		}
		benchRunt = SynthEventsFor(benchC.PIs, 1)
		for i := range benchRunt {
			benchRunt[i].Time = float64(i%5) * 40e-12
			benchRunt[i].Dir = waveform.Rising
			if i%2 == 1 {
				benchRunt[i].Dir = waveform.Falling
			}
		}
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchC, SynthEventsFor(TilePIs(benchC, 0), 1)
}

// getGlitchBench returns the tiled netlist with a runt-heavy full stimulus:
// every primary input fires, event times compressed into a 160ps window
// with alternating directions, so downstream gates see close opposite-edge
// pairs and the filter actually judges instead of fast-pathing.
func getGlitchBench(tb testing.TB) (*Circuit, []PIEvent) {
	tb.Helper()
	c, _ := getMCBench(tb)
	return c, benchRunt
}

// tiledBatch builds n stimulus vectors, each confined to one tile (cycling
// through the tiles), the partial-activity batch shape.
func tiledBatch(c *Circuit, n int) [][]PIEvent {
	batch := make([][]PIEvent, n)
	for i := range batch {
		batch[i] = SynthEventsFor(TilePIs(c, i%benchTiles), int64(i))
	}
	return batch
}

// fullBatch builds n all-PI stimulus vectors — the saturated shape where
// every gate runs.
func fullBatch(c *Circuit, n int) [][]PIEvent {
	batch := make([][]PIEvent, n)
	for i := range batch {
		batch[i] = SynthEvents(c, int64(i))
	}
	return batch
}

// compileBench compiles the tiled netlist, outside any timed loop.
func compileBench(tb testing.TB, c *Circuit) *Compiled {
	tb.Helper()
	p, err := c.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// An op is one timed operation; i selects a delta's nudge.
type op func(i int) error

// run is a benchmark's loop over one op.
func (o op) run(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := o(i); err != nil {
			b.Fatal(err)
		}
	}
}

// analyzeOp analyzes one vector on the compiled netlist.
func analyzeOp(p *Compiled, evs []PIEvent, opt Options) op {
	return func(int) error {
		_, err := p.Analyze(context.Background(), evs, Proximity, opt)
		return err
	}
}

// batchOp analyzes a batch serially on the compiled netlist.
func batchOp(p *Compiled, batch [][]PIEvent) op {
	return func(int) error {
		_, err := p.AnalyzeBatch(context.Background(), batch, Proximity, Options{Workers: 1})
		return err
	}
}

// mcOp runs a serial 1024-sample Monte-Carlo analysis of one vector.
func mcOp(p *Compiled, evs []PIEvent) op {
	opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
	opt.Workers = 1
	return func(int) error {
		_, err := p.AnalyzeMC(context.Background(), evs, Proximity, opt)
		return err
	}
}

// freshCompileOp is the naive statistical sample: levelize and build the
// consumer table from scratch, then analyze once — the cost AnalyzeMC
// amortizes away.
func freshCompileOp(c *Circuit, evs []PIEvent) op {
	return func(int) error {
		p, err := c.Compile()
		if err != nil {
			return err
		}
		_, err = p.Analyze(context.Background(), evs, Proximity, Options{Workers: 1})
		return err
	}
}

// nudge returns the vector with event i%len shifted by a few picoseconds,
// and that event — the single-PI re-timing query ECO sweeps are made of. On
// the runt-heavy vector the shift sometimes moves a nearby pair across the
// inertial boundary, so a filtered delta re-judges rather than fast-paths.
func nudge(evs []PIEvent, i int) ([]PIEvent, PIEvent) {
	k := i % len(evs)
	ev := evs[k]
	ev.Time += float64(i%7+1) * 1e-12
	out := append([]PIEvent(nil), evs...)
	out[k] = ev
	return out, ev
}

// reanalyzeOp is a full re-analysis of the nudged vector.
func reanalyzeOp(p *Compiled, evs []PIEvent, opt Options) op {
	return func(i int) error {
		edited, _ := nudge(evs, i)
		_, err := p.Analyze(context.Background(), edited, Proximity, opt)
		return err
	}
}

// deltaQuery re-times nudge i of the vector against a kept baseline of it.
type deltaQuery struct {
	p        *Compiled
	baseline *Result
	evs      []PIEvent
	opt      Options
}

func newDeltaQuery(tb testing.TB, p *Compiled, evs []PIEvent, opt Options) *deltaQuery {
	tb.Helper()
	baseline, err := p.Analyze(context.Background(), evs, Proximity, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return &deltaQuery{p, baseline, evs, opt}
}

func (d *deltaQuery) run(i int) (*Result, error) {
	_, ev := nudge(d.evs, i)
	return d.p.AnalyzeDelta(context.Background(), d.baseline, Delta{Set: []PIEvent{ev}}, d.opt)
}

func (d *deltaQuery) op() op {
	return func(i int) error {
		_, err := d.run(i)
		return err
	}
}

var (
	plainOpt  = Options{Workers: 1}
	filterOpt = Options{Workers: 1, PulseFiltering: true}
)

// BenchmarkSparseBatch times the walk on the tiled netlist for a tile-local
// (partial) batch and an all-PI (full) batch.
func BenchmarkSparseBatch(b *testing.B) {
	c, _ := getMCBench(b)
	p := compileBench(b, c)
	for _, stim := range []struct {
		name  string
		batch [][]PIEvent
	}{
		{"partial", tiledBatch(c, 16)},
		{"full", fullBatch(c, 4)},
	} {
		b.Run("stimulus="+stim.name, func(b *testing.B) {
			batchOp(p, stim.batch).run(b)
			b.ReportMetric(float64(len(stim.batch))*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
		})
	}
}

// BenchmarkDelta measures single-PI perturbation re-timing on the tiled
// netlist two ways: a full re-analysis of the edited vector, and
// AnalyzeDelta against the kept baseline. The stimulus covers every PI, so
// the full walk runs every gate — the delta path wins by propagating only
// the arrivals the nudge actually moves.
func BenchmarkDelta(b *testing.B) {
	c, _ := getMCBench(b)
	p := compileBench(b, c)
	evs := SynthEvents(c, 0)
	d := newDeltaQuery(b, p, evs, plainOpt)
	b.Run("full", reanalyzeOp(p, evs, plainOpt).run)
	b.Run("delta", d.op().run)
}

// BenchmarkGlitchDelta is BenchmarkDelta with pulse filtering on, on the
// runt-heavy vector: a filtered delta against a kept filtered baseline vs a
// full filtered re-analysis.
func BenchmarkGlitchDelta(b *testing.B) {
	c, evs := getGlitchBench(b)
	p := compileBench(b, c)
	d := newDeltaQuery(b, p, evs, filterOpt)
	b.Run("full", reanalyzeOp(p, evs, filterOpt).run)
	b.Run("delta", d.op().run)
}

// BenchmarkMC times a serial 1024-sample AnalyzeMC on the tile-local vector
// against the naive loop it amortizes (a fresh compile and analyze per
// sample).
func BenchmarkMC(b *testing.B) {
	c, evs := getMCBench(b)
	p := compileBench(b, c)
	b.Run("amortized-1024", mcOp(p, evs).run)
	b.Run("fresh-compile-per-sample", freshCompileOp(c, evs).run)
}

// BenchmarkPulseFilter times an analysis of the runt-heavy vector with
// pulse filtering off and on.
func BenchmarkPulseFilter(b *testing.B) {
	c, evs := getGlitchBench(b)
	p := compileBench(b, c)
	b.Run("off", analyzeOp(p, evs, plainOpt).run)
	b.Run("on", analyzeOp(p, evs, filterOpt).run)
}

// TestWalkStopsAtAbsorbedPulses: an absorbed runt commits no arrival, so
// the walk must not run the gates it feeds. On the runt-heavy vector every
// gate run evaluates (GatesScheduled == GatesEvaluated) and the absorbed
// pairs' fanout is skipped (fewer gates run than the netlist holds).
func TestWalkStopsAtAbsorbedPulses(t *testing.T) {
	c, evs := getGlitchBench(t)
	res, err := compileBench(t, c).Analyze(context.Background(), evs, Proximity, filterOpt)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PulsesFiltered == 0 {
		t.Fatal("runt-heavy vector absorbed no pulse — the check is vacuous")
	}
	if st.GatesScheduled != st.GatesEvaluated {
		t.Errorf("walk ran %d gates, %d evaluated", st.GatesScheduled, st.GatesEvaluated)
	}
	if st.GatesScheduled >= len(c.Gates) {
		t.Errorf("walk ran %d of %d gates — absorbed pairs did not cut it", st.GatesScheduled, len(c.Gates))
	}
}
