package sta_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/sta"
)

// perturbOne returns the baseline vector with event i%len shifted by a few
// picoseconds — the single-PI re-timing query ECO sweeps are made of.
func perturbOne(evs []sta.PIEvent, i int) ([]sta.PIEvent, sta.PIEvent) {
	k := i % len(evs)
	ev := evs[k]
	ev.Time += float64(i%7+1) * 1e-12
	out := append([]sta.PIEvent(nil), evs...)
	out[k] = ev
	return out, ev
}

// BenchmarkDelta measures single-PI perturbation re-timing on the tiled
// netlist two ways: a full re-analysis of the edited vector, and
// AnalyzeDelta against the kept baseline. The stimulus covers every PI, so
// the full walk runs every gate — the delta path wins by propagating only
// the arrivals the nudge actually moves.
func BenchmarkDelta(b *testing.B) {
	c := getTiledBench(b)
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := sta.Options{Workers: 1}
	evs := sta.SynthEvents(c, 0)
	baseline, err := p.Analyze(ctx, evs, sta.Proximity, opt)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := perturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, sta.Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := perturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, sta.Delta{Set: []sta.PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// deltaBenchResult is the BENCH_delta.json schema — the before/after record
// for delta re-analysis. "Before" is a full analysis of the edited vector on
// the same engine build, so the comparison isolates the delta's cutoff
// against the same walk started from an empty result.
type deltaBenchResult struct {
	Timestamp    string `json:"timestamp"`
	NetlistGates int    `json:"netlistGates"`
	NetlistPIs   int    `json:"netlistPIs"`
	Tiles        int    `json:"tiles"`

	FullSparseSecPerQuery float64 `json:"fullSparseSecPerQuery"`
	DeltaSecPerQuery      float64 `json:"deltaSecPerQuery"`
	Speedup               float64 `json:"speedup"`

	// One sample query's reuse accounting, to show how little of the
	// baseline a single-PI nudge actually disturbs.
	SampleGatesReevaluated int `json:"sampleGatesReevaluated"`
	SampleGatesReused      int `json:"sampleGatesReused"`
}

// TestWriteDeltaBench regenerates BENCH_delta.json when BENCH_DELTA_OUT
// names the output path (it is skipped in normal test runs):
//
//	BENCH_DELTA_OUT=$(pwd)/BENCH_delta.json go test -run TestWriteDeltaBench ./internal/sta/
//
// The acceptance bar it documents: ≥5x over full re-analysis on
// single-PI perturbations of the tiled workload.
func TestWriteDeltaBench(t *testing.T) {
	out := os.Getenv("BENCH_DELTA_OUT")
	if out == "" {
		t.Skip("set BENCH_DELTA_OUT to regenerate BENCH_delta.json")
	}
	c := getTiledBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := sta.Options{Workers: 1}
	evs := sta.SynthEvents(c, 0)
	baseline, err := p.Analyze(ctx, evs, sta.Proximity, opt)
	if err != nil {
		t.Fatal(err)
	}

	fullSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := perturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, sta.Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	deltaSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := perturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, sta.Delta{Set: []sta.PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	_, sampleEv := perturbOne(evs, 0)
	sample, err := p.AnalyzeDelta(ctx, baseline, sta.Delta{Set: []sta.PIEvent{sampleEv}}, opt)
	if err != nil {
		t.Fatal(err)
	}

	res := deltaBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: benchTiles * benchGatesPerTile,
		NetlistPIs:   benchTiles * benchPIsPerTile,
		Tiles:        benchTiles,

		FullSparseSecPerQuery:  fullSec.T.Seconds() / float64(fullSec.N),
		DeltaSecPerQuery:       deltaSec.T.Seconds() / float64(deltaSec.N),
		SampleGatesReevaluated: sample.Stats.GatesReevaluated,
		SampleGatesReused:      sample.Stats.GatesReused,
	}
	res.Speedup = res.FullSparseSecPerQuery / res.DeltaSecPerQuery

	if res.Speedup < 5 {
		t.Errorf("delta speedup %.2fx over full re-analysis, acceptance bar is 5x", res.Speedup)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("delta %.2fx (%.3fms -> %.3fms per query, %d/%d gates re-evaluated); wrote %s",
		res.Speedup, res.FullSparseSecPerQuery*1e3, res.DeltaSecPerQuery*1e3,
		res.SampleGatesReevaluated, res.SampleGatesReevaluated+res.SampleGatesReused, out)
}
