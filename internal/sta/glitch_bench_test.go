package sta

// Pulse-filtering benchmark: Section-6 judging runs at commit time on every
// gate whose evaluation produced both output edges, so its cost shows up
// exactly on runt-heavy workloads — compressed stimuli where most outputs
// carry opposite-edge pairs. The recorded number is the ratio between a
// filtered and an unfiltered analyze of the same vector on the same compile,
// which isolates the verdict cost (lookup, interpolation, inertial-delay
// bisection) from everything else. This file lives in package sta alongside
// the MC bench to reuse its tiled netlist fixture.

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/waveform"
)

var (
	glitchBenchOnce sync.Once
	glitchBenchEvs  []PIEvent
)

// getGlitchBench returns the shared tiled netlist with a runt-heavy full
// stimulus: every primary input fires, event times compressed into a 160ps
// window with alternating directions, so downstream gates see close
// opposite-edge pairs and the filter actually judges instead of
// fast-pathing.
func getGlitchBench(tb testing.TB) (*Circuit, []PIEvent) {
	c, _ := getMCBench(tb)
	glitchBenchOnce.Do(func() {
		glitchBenchEvs = SynthEventsFor(c.PIs, 1)
		for i := range glitchBenchEvs {
			glitchBenchEvs[i].Time = float64(i%5) * 40e-12
			glitchBenchEvs[i].Dir = waveform.Rising
			if i%2 == 1 {
				glitchBenchEvs[i].Dir = waveform.Falling
			}
		}
	})
	return c, glitchBenchEvs
}

func BenchmarkPulseFilter(b *testing.B) {
	c, evs := getGlitchBench(b)
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("off", func(b *testing.B) {
		opt := Options{Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		opt := Options{Workers: 1, PulseFiltering: true}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWalkStopsAtAbsorbedPulses: an absorbed runt commits no arrival, so
// the walk must not run the gates it feeds. On the runt-heavy vector every
// gate run evaluates (GatesScheduled == GatesEvaluated) and the absorbed
// pairs' fanout is skipped (fewer gates run than the netlist holds).
func TestWalkStopsAtAbsorbedPulses(t *testing.T) {
	c, evs := getGlitchBench(t)
	res, err := c.AnalyzeOpts(evs, Proximity, Options{Workers: 1, PulseFiltering: true})
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

// glitchBenchResult is the BENCH_glitch.json schema.
type glitchBenchResult struct {
	Timestamp    string `json:"timestamp"`
	NetlistGates int    `json:"netlistGates"`
	NetlistPIs   int    `json:"netlistPIs"`

	// PulsesFiltered/PulsesDegraded are the per-vector verdict counts on the
	// runt-heavy stimulus — recorded so a baseline where the filter stopped
	// judging anything is recognizable as vacuous, not fast.
	PulsesFiltered int `json:"pulsesFiltered"`
	PulsesDegraded int `json:"pulsesDegraded"`

	// PlainSecPerVector is the unfiltered serial analyze; FilteredSecPerVector
	// the same vector with PulseFiltering on, same compile.
	PlainSecPerVector    float64 `json:"plainSecPerVector"`
	FilteredSecPerVector float64 `json:"filteredSecPerVector"`
	// FilterOverhead = FilteredSecPerVector / PlainSecPerVector (the
	// acceptance bar is 2x on the runt-heavy worst case).
	FilterOverhead float64 `json:"filterOverhead"`
}

// TestWriteGlitchBench regenerates BENCH_glitch.json when BENCH_GLITCH_OUT
// names the output path (skipped in normal test runs):
//
//	BENCH_GLITCH_OUT=$(pwd)/BENCH_glitch.json go test -run TestWriteGlitchBench ./internal/sta/
//
// Acceptance bar: on a worst-case runt-heavy stimulus, enabling the filter
// costs at most 2x a plain analyze of the same vector.
func TestWriteGlitchBench(t *testing.T) {
	out := os.Getenv("BENCH_GLITCH_OUT")
	if out == "" {
		t.Skip("set BENCH_GLITCH_OUT to regenerate BENCH_glitch.json")
	}
	c, evs := getGlitchBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	probe, err := p.Analyze(ctx, evs, Proximity, Options{Workers: 1, PulseFiltering: true})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Stats.PulsesFiltered+probe.Stats.PulsesDegraded == 0 {
		t.Fatal("runt-heavy stimulus judged no pulses — benchmark is vacuous")
	}

	plain := testing.Benchmark(func(b *testing.B) {
		opt := Options{Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	filtered := testing.Benchmark(func(b *testing.B) {
		opt := Options{Workers: 1, PulseFiltering: true}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	res := glitchBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: mcBenchTiles * mcBenchGatesPerTile,
		NetlistPIs:   mcBenchTiles * mcBenchPIsPerTile,

		PulsesFiltered: probe.Stats.PulsesFiltered,
		PulsesDegraded: probe.Stats.PulsesDegraded,

		PlainSecPerVector:    plain.T.Seconds() / float64(plain.N),
		FilteredSecPerVector: filtered.T.Seconds() / float64(filtered.N),
	}
	res.FilterOverhead = res.FilteredSecPerVector / res.PlainSecPerVector

	if res.FilterOverhead > 2 {
		t.Errorf("pulse filtering costs %.2fx a plain analyze, acceptance bar is 2x", res.FilterOverhead)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("pulse filtering %.2fx overhead (%.3gs plain vs %.3gs filtered; %d filtered, %d degraded); wrote %s",
		res.FilterOverhead, res.PlainSecPerVector, res.FilteredSecPerVector,
		res.PulsesFiltered, res.PulsesDegraded, out)
}

// TestBenchGuardGlitch compares today's filter overhead against the recorded
// BENCH_glitch.json, gated behind BENCH_GUARD=1 like the MC guard. Both
// sides of the ratio are measured seconds apart in one process, so
// machine-wide slowdowns cancel; margin via BENCH_GUARD_MARGIN (default
// 1.25x).
func TestBenchGuardGlitch(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_glitch.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_glitch.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base glitchBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.FilterOverhead <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	c, evs := getGlitchBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain := testing.Benchmark(func(b *testing.B) {
		opt := Options{Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	filtered := testing.Benchmark(func(b *testing.B) {
		opt := Options{Workers: 1, PulseFiltering: true}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	overhead := (filtered.T.Seconds() / float64(filtered.N)) / (plain.T.Seconds() / float64(plain.N))
	t.Logf("pulse filtering overhead %.2fx (baseline %.2fx)", overhead, base.FilterOverhead)
	if overhead > base.FilterOverhead*margin {
		t.Errorf("pulse filtering overhead grew to %.2fx from the recorded %.2fx (margin %.2f) — verdict cost crept in",
			overhead, base.FilterOverhead, margin)
	}
}
