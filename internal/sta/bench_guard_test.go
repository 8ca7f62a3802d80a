package sta_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"repro/internal/sta"
)

// TestBenchGuardSparse compares today's batch performance (tracing disabled
// — the always-on phase timers are part of the product) against the
// recorded BENCH_sparse.json baseline. Gated behind BENCH_GUARD=1 so
// ordinary test runs stay fast and timing-noise-free.
//
// The enforced number is the full-activity over partial-activity seconds
// per vector: both sides run through the same walk in the same process
// seconds apart, so machine-wide slowdowns (shared CI runners, background
// load, frequency scaling) cancel out, unlike the absolute sec/vector —
// which is still measured and logged against the baseline for the record.
// A partial vector touches 1/240 of the netlist, so the ratio falls when a
// per-vector cost that does not scale with activity creeps into the walk.
// It must stay within BENCH_GUARD_MARGIN (default 1.25x slack; local
// acceptance runs use a tighter one) of the recorded
// fullSparseSecPerVector / partialSparseSecPerVector:
//
//	BENCH_GUARD=1 BENCH_GUARD_MARGIN=1.05 go test -run TestBenchGuardSparse ./internal/sta/
func TestBenchGuardSparse(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_sparse.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_sparse.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base sparseBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.PartialSparseSecPerV <= 0 || base.FullSparseSecPerV <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}
	baseRatio := base.FullSparseSecPerV / base.PartialSparseSecPerV

	c := getTiledBench(t)
	partialSec := secPerVector(c, tiledBatch(t, c, 32))
	fullSec := secPerVector(c, fullBatch(c, 4))
	ratio := fullSec / partialSec

	t.Logf("partial %.3gs/vector (baseline %.3gs, abs ratio %.2f); full/partial %.1fx (baseline %.1fx)",
		partialSec, base.PartialSparseSecPerV, partialSec/base.PartialSparseSecPerV, ratio, baseRatio)
	if ratio*margin < baseRatio {
		t.Errorf("full/partial cost ratio fell to %.1fx from the recorded %.1fx (margin %.2f) — a per-vector cost that does not scale with activity crept into the walk",
			ratio, baseRatio, margin)
	}
}

// secPerVector measures serial AnalyzeBatch seconds per vector.
func secPerVector(c *sta.Circuit, batch [][]sta.PIEvent) float64 {
	opt := sta.Options{Workers: 1}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.AnalyzeBatch(batch, sta.Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r.T.Seconds() / float64(r.N) / float64(len(batch))
}
