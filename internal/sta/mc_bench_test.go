package sta

// Monte-Carlo benchmark: the subsystem's reason to exist is amortization —
// one compile reused across thousands of samples, each costing no more than
// a plain analyze of the same vector. The guarded number is that per-sample
// overhead: AnalyzeMC's serial per-sample cost at 1024 samples over one
// serial Analyze on the reused compile. The amortization against the naive
// statistical loop (fresh compile + analyze per sample, what a caller
// without AnalyzeMC would write) is recorded alongside. This file lives in
// package sta (not sta_test) because the naive side needs compileFull to
// defeat the circuit-level compile memoization.

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

const (
	mcBenchTiles        = 240
	mcBenchPIsPerTile   = 8
	mcBenchGatesPerTile = 50
	mcBenchSamples      = 1024
	mcBenchSigma        = 0.03
)

var (
	mcBenchOnce sync.Once
	mcBenchC    *Circuit
	mcBenchErr  error
)

// getMCBench returns the shared tiled netlist with a tile-local stimulus:
// the shape statistical sweeps run in practice — a partial vector whose
// cone is small while the compile cost spans the whole netlist.
func getMCBench(tb testing.TB) (*Circuit, []PIEvent) {
	tb.Helper()
	mcBenchOnce.Do(func() {
		mcBenchC, mcBenchErr = SynthTiled(mcBenchTiles, mcBenchPIsPerTile, mcBenchGatesPerTile, 17)
	})
	if mcBenchErr != nil {
		tb.Fatal(mcBenchErr)
	}
	return mcBenchC, SynthEventsFor(TilePIs(mcBenchC, 0), 1)
}

// freshCompileAnalyze is the naive statistical sample: levelize + consumer
// table from scratch, then analyze once — the cost AnalyzeMC amortizes away.
func freshCompileAnalyze(ctx context.Context, c *Circuit, evs []PIEvent) error {
	p, err := c.compileFull(nil)
	if err != nil {
		return err
	}
	_, err = p.Analyze(ctx, evs, Proximity, Options{Workers: 1})
	return err
}

func BenchmarkMC(b *testing.B) {
	c, evs := getMCBench(b)
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("amortized-1024", func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-compile-per-sample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := freshCompileAnalyze(ctx, c, evs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mcBenchResult is the BENCH_mc.json schema.
type mcBenchResult struct {
	Timestamp    string  `json:"timestamp"`
	NetlistGates int     `json:"netlistGates"`
	NetlistPIs   int     `json:"netlistPIs"`
	Samples      int     `json:"samples"`
	Sigma        float64 `json:"sigma"`

	// PlainAnalyzeSecPerVector is a deterministic serial analyze on the
	// reused compile — the floor a perturbed sample is measured against.
	PlainAnalyzeSecPerVector float64 `json:"plainAnalyzeSecPerVector"`
	// MCSecPerSample is AnalyzeMC's serial per-sample cost at 1024 samples.
	MCSecPerSample float64 `json:"mcSecPerSample"`
	// PerSampleOverhead = MCSecPerSample / PlainAnalyzeSecPerVector: what a
	// perturbed, aggregated, criticality-traced sample costs relative to a
	// plain analyze of the same vector (the acceptance bar is 1.5x;
	// TestBenchGuardMC guards it).
	PerSampleOverhead float64 `json:"perSampleOverhead"`
	// FreshCompileSecPerSample is the naive loop's per-sample cost.
	FreshCompileSecPerSample float64 `json:"freshCompileSecPerSample"`
	// Amortization = FreshCompileSecPerSample / MCSecPerSample (serial both
	// sides), kept for the record.
	Amortization float64 `json:"amortization"`
	// ParallelSamplesPerSec is the throughput with the default worker pool.
	ParallelSamplesPerSec float64 `json:"parallelSamplesPerSec"`
}

// TestWriteMCBench regenerates BENCH_mc.json when BENCH_MC_OUT names the
// output path (skipped in normal test runs):
//
//	BENCH_MC_OUT=$(pwd)/BENCH_mc.json go test -run TestWriteMCBench ./internal/sta/
//
// Acceptance bar: an AnalyzeMC sample at 1024 samples costs at most 1.5x a
// plain analyze of the same vector on the same compile.
func TestWriteMCBench(t *testing.T) {
	out := os.Getenv("BENCH_MC_OUT")
	if out == "" {
		t.Skip("set BENCH_MC_OUT to regenerate BENCH_mc.json")
	}
	c, evs := getMCBench(t)
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
	serialMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	naive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := freshCompileAnalyze(ctx, c, evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	parallelMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	res := mcBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: mcBenchTiles * mcBenchGatesPerTile,
		NetlistPIs:   mcBenchTiles * mcBenchPIsPerTile,
		Samples:      mcBenchSamples,
		Sigma:        mcBenchSigma,

		PlainAnalyzeSecPerVector: plain.T.Seconds() / float64(plain.N),
		MCSecPerSample:           serialMC.T.Seconds() / float64(serialMC.N) / mcBenchSamples,
		FreshCompileSecPerSample: naive.T.Seconds() / float64(naive.N),
		ParallelSamplesPerSec:    float64(parallelMC.N) * mcBenchSamples / parallelMC.T.Seconds(),
	}
	res.PerSampleOverhead = res.MCSecPerSample / res.PlainAnalyzeSecPerVector
	res.Amortization = res.FreshCompileSecPerSample / res.MCSecPerSample

	if res.PerSampleOverhead > 1.5 {
		t.Errorf("MC per-sample overhead %.2fx over a plain analyze, acceptance bar is 1.5x", res.PerSampleOverhead)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("mc %.1fx amortization (%.3gs naive vs %.3gs/sample), %.2fx per-sample overhead, %.0f samples/s parallel; wrote %s",
		res.Amortization, res.FreshCompileSecPerSample, res.MCSecPerSample,
		res.PerSampleOverhead, res.ParallelSamplesPerSec, out)
}

// TestBenchGuardMC compares today's MC per-sample overhead — one serial
// sample over one serial plain analyze of the same vector — against the
// recorded BENCH_mc.json, gated behind BENCH_GUARD=1 like the sparse guard.
// Both sides are measured seconds apart in one process, so machine-wide
// slowdowns cancel; margin via BENCH_GUARD_MARGIN (default 1.25x).
func TestBenchGuardMC(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_mc.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_mc.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base mcBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.PerSampleOverhead <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	c, evs := getMCBench(t)
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
	serialMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	perSample := serialMC.T.Seconds() / float64(serialMC.N) / mcBenchSamples
	overhead := perSample / (plain.T.Seconds() / float64(plain.N))
	t.Logf("mc per-sample overhead %.2fx (baseline %.2fx)", overhead, base.PerSampleOverhead)
	if overhead > base.PerSampleOverhead*margin {
		t.Errorf("MC per-sample overhead rose to %.2fx from the recorded %.2fx (margin %.2f) — per-sample cost crept in",
			overhead, base.PerSampleOverhead, margin)
	}
}
