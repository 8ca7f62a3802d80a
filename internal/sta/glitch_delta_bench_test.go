package sta

// Filtered-delta benchmark: the point of wiring Section-6 filtering through
// AnalyzeDelta is that ECO traffic on a glitch-aware signoff flow keeps the
// delta path's asymptotics — the verdict re-judging must not force the walk
// back to full-cone work. The recorded number is single-PI re-timing on the
// runt-heavy tiled workload, filtered delta against a kept filtered baseline
// vs a full filtered re-analysis of the edited vector.

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"
)

// glitchPerturbOne returns the runt-heavy vector with event i%len shifted by
// a few picoseconds — enough to move nearby pairs across the inertial
// boundary sometimes, so the delta path re-judges rather than fast-pathing.
func glitchPerturbOne(evs []PIEvent, i int) ([]PIEvent, PIEvent) {
	k := i % len(evs)
	ev := evs[k]
	ev.Time += float64(i%7+1) * 1e-12
	out := append([]PIEvent(nil), evs...)
	out[k] = ev
	return out, ev
}

func BenchmarkGlitchDelta(b *testing.B) {
	c, evs := getGlitchBench(b)
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := Options{Workers: 1, PulseFiltering: true}
	baseline, err := p.Analyze(ctx, evs, Proximity, opt)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := glitchPerturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := glitchPerturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// glitchDeltaBenchResult is the BENCH_glitch_delta.json schema.
type glitchDeltaBenchResult struct {
	Timestamp    string `json:"timestamp"`
	NetlistGates int    `json:"netlistGates"`
	NetlistPIs   int    `json:"netlistPIs"`

	// Baseline verdict counts on the runt-heavy stimulus — zero judged
	// pulses would make the "filtered delta" measurement an unfiltered one
	// in disguise.
	PulsesFiltered int `json:"pulsesFiltered"`
	PulsesDegraded int `json:"pulsesDegraded"`

	FullSparseSecPerQuery float64 `json:"fullSparseSecPerQuery"`
	DeltaSecPerQuery      float64 `json:"deltaSecPerQuery"`
	// Speedup = FullSparseSecPerQuery / DeltaSecPerQuery (the acceptance
	// bar is 5x, matching the unfiltered delta bar — filtering must not
	// cost the delta path its asymptotics).
	Speedup float64 `json:"speedup"`

	SampleGatesReevaluated int `json:"sampleGatesReevaluated"`
	SampleGatesReused      int `json:"sampleGatesReused"`
}

// TestWriteGlitchDeltaBench regenerates BENCH_glitch_delta.json when
// BENCH_GLITCH_DELTA_OUT names the output path (skipped in normal runs):
//
//	BENCH_GLITCH_DELTA_OUT=$(pwd)/BENCH_glitch_delta.json go test -run TestWriteGlitchDeltaBench ./internal/sta/
//
// Acceptance bar: ≥5x over full filtered re-analysis on single-PI
// perturbations of the runt-heavy tiled workload.
func TestWriteGlitchDeltaBench(t *testing.T) {
	out := os.Getenv("BENCH_GLITCH_DELTA_OUT")
	if out == "" {
		t.Skip("set BENCH_GLITCH_DELTA_OUT to regenerate BENCH_glitch_delta.json")
	}
	c, evs := getGlitchBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := Options{Workers: 1, PulseFiltering: true}
	baseline, err := p.Analyze(ctx, evs, Proximity, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Stats.PulsesFiltered+baseline.Stats.PulsesDegraded == 0 {
		t.Fatal("runt-heavy baseline judged no pulses — benchmark is vacuous")
	}

	fullSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := glitchPerturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	deltaSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := glitchPerturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	_, sampleEv := glitchPerturbOne(evs, 0)
	sample, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{sampleEv}}, opt)
	if err != nil {
		t.Fatal(err)
	}

	res := glitchDeltaBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: mcBenchTiles * mcBenchGatesPerTile,
		NetlistPIs:   mcBenchTiles * mcBenchPIsPerTile,

		PulsesFiltered: baseline.Stats.PulsesFiltered,
		PulsesDegraded: baseline.Stats.PulsesDegraded,

		FullSparseSecPerQuery:  fullSec.T.Seconds() / float64(fullSec.N),
		DeltaSecPerQuery:       deltaSec.T.Seconds() / float64(deltaSec.N),
		SampleGatesReevaluated: sample.Stats.GatesReevaluated,
		SampleGatesReused:      sample.Stats.GatesReused,
	}
	res.Speedup = res.FullSparseSecPerQuery / res.DeltaSecPerQuery

	if res.Speedup < 5 {
		t.Errorf("filtered delta speedup %.2fx over full filtered re-analysis, acceptance bar is 5x", res.Speedup)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("filtered delta %.2fx (%.3fms -> %.3fms per query, %d/%d gates re-evaluated); wrote %s",
		res.Speedup, res.FullSparseSecPerQuery*1e3, res.DeltaSecPerQuery*1e3,
		res.SampleGatesReevaluated, res.SampleGatesReevaluated+res.SampleGatesReused, out)
}

// TestBenchGuardGlitchDelta compares today's filtered-delta speedup against
// the recorded BENCH_glitch_delta.json, gated behind BENCH_GUARD=1. Both
// sides of the ratio are measured in one process, so machine-wide slowdowns
// cancel; margin via BENCH_GUARD_MARGIN (default 1.25x).
func TestBenchGuardGlitchDelta(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_glitch_delta.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_glitch_delta.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base glitchDeltaBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.Speedup <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	c, evs := getGlitchBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := Options{Workers: 1, PulseFiltering: true}
	baseline, err := p.Analyze(ctx, evs, Proximity, opt)
	if err != nil {
		t.Fatal(err)
	}
	fullSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := glitchPerturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	deltaSec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := glitchPerturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := (fullSec.T.Seconds() / float64(fullSec.N)) / (deltaSec.T.Seconds() / float64(deltaSec.N))
	t.Logf("filtered delta speedup %.2fx (baseline %.2fx)", speedup, base.Speedup)
	if speedup < base.Speedup/margin {
		t.Errorf("filtered delta speedup shrank to %.2fx from the recorded %.2fx (margin %.2f) — re-judging cost crept into the walk",
			speedup, base.Speedup, margin)
	}
}
