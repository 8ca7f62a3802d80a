package sta_test

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/sta"
)

// The partial-activity benchmark netlist: 240 independent 50-gate tiles
// (12k gates total, 1920 PIs). A tile-local stimulus vector touches 8 PIs —
// 0.42% of the inputs — the block-partitioned locality shape where the walk
// runs one tile and never reaches the other 239.
const (
	benchTiles        = 240
	benchPIsPerTile   = 8
	benchGatesPerTile = 50
)

var (
	tiledOnce sync.Once
	tiledC    *sta.Circuit
	tiledErr  error
)

func getTiledBench(tb testing.TB) *sta.Circuit {
	tb.Helper()
	tiledOnce.Do(func() {
		tiledC, tiledErr = sta.SynthTiled(benchTiles, benchPIsPerTile, benchGatesPerTile, 17)
	})
	if tiledErr != nil {
		tb.Fatal(tiledErr)
	}
	return tiledC
}

// tiledBatch builds n stimulus vectors, each confined to one tile (cycling
// through the tiles), the partial-activity batch shape.
func tiledBatch(tb testing.TB, c *sta.Circuit, n int) [][]sta.PIEvent {
	tb.Helper()
	batch := make([][]sta.PIEvent, n)
	for i := range batch {
		pis := sta.TilePIs(c, i%benchTiles)
		if len(pis) != benchPIsPerTile {
			tb.Fatalf("tile %d has %d PIs, want %d", i%benchTiles, len(pis), benchPIsPerTile)
		}
		batch[i] = sta.SynthEventsFor(pis, int64(i))
	}
	return batch
}

// fullBatch builds n all-PI stimulus vectors — the saturated shape where
// every gate runs.
func fullBatch(c *sta.Circuit, n int) [][]sta.PIEvent {
	batch := make([][]sta.PIEvent, n)
	for i := range batch {
		batch[i] = sta.SynthEvents(c, int64(i))
	}
	return batch
}

// BenchmarkSparseBatch times the walk on the tiled netlist for a tile-local
// (partial) batch and an all-PI (full) batch; the two per-vector costs are
// the numbers recorded in BENCH_sparse.json.
func BenchmarkSparseBatch(b *testing.B) {
	c := getTiledBench(b)
	for _, stim := range []struct {
		name  string
		batch [][]sta.PIEvent
	}{
		{"partial", tiledBatch(b, c, 16)},
		{"full", fullBatch(c, 4)},
	} {
		b.Run("stimulus="+stim.name, func(b *testing.B) {
			opt := sta.Options{Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.AnalyzeBatch(stim.batch, sta.Proximity, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(stim.batch))*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
		})
	}
}

// sparseBenchResult is the BENCH_sparse.json schema: serial seconds per
// vector of the walk on a partial- and a full-activity batch, and their
// ratio. Files recorded before the walk replaced the dense and per-PI cone
// schedules also carry the dense-schedule rows (partialDenseSecPerVector,
// partialSpeedup, fullDenseSecPerVector, fullSpeedup).
type sparseBenchResult struct {
	Timestamp    string `json:"timestamp"`
	NetlistGates int    `json:"netlistGates"`
	NetlistPIs   int    `json:"netlistPIs"`
	Tiles        int    `json:"tiles"`

	PartialPIsPerVector  int     `json:"partialPIsPerVector"`
	PartialPIFraction    float64 `json:"partialPIFraction"`
	PartialVectors       int     `json:"partialVectors"`
	PartialSparseSecPerV float64 `json:"partialSparseSecPerVector"`

	FullVectors       int     `json:"fullVectors"`
	FullSparseSecPerV float64 `json:"fullSparseSecPerVector"`

	// FullOverPartial = FullSparseSecPerV / PartialSparseSecPerV: how much
	// of a full vector's cost a partial vector avoids (ideal: 240, the tile
	// count). TestBenchGuardSparse guards it.
	FullOverPartial float64 `json:"fullOverPartial"`
}

// TestWriteSparseBench regenerates BENCH_sparse.json when BENCH_SPARSE_OUT
// names the output path (it is skipped in normal test runs):
//
//	BENCH_SPARSE_OUT=$(pwd)/BENCH_sparse.json go test -run TestWriteSparseBench ./internal/sta/
//
// The acceptance bar it documents: a vector touching 1/240 of the netlist
// costs at most 1/50 of a full-activity vector — the walk's per-vector cost
// scales with activity, not with the netlist.
func TestWriteSparseBench(t *testing.T) {
	out := os.Getenv("BENCH_SPARSE_OUT")
	if out == "" {
		t.Skip("set BENCH_SPARSE_OUT to regenerate BENCH_sparse.json")
	}
	c := getTiledBench(t)
	partial := tiledBatch(t, c, 32)
	full := fullBatch(c, 4)

	res := sparseBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: benchTiles * benchGatesPerTile,
		NetlistPIs:   benchTiles * benchPIsPerTile,
		Tiles:        benchTiles,

		PartialPIsPerVector: benchPIsPerTile,
		PartialPIFraction:   1.0 / benchTiles,
		PartialVectors:      len(partial),
		FullVectors:         len(full),
	}
	res.PartialSparseSecPerV = secPerVector(c, partial)
	res.FullSparseSecPerV = secPerVector(c, full)
	res.FullOverPartial = res.FullSparseSecPerV / res.PartialSparseSecPerV

	if res.FullOverPartial < 50 {
		t.Errorf("full/partial cost ratio %.1fx, acceptance bar is 50x", res.FullOverPartial)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("partial %.3fms, full %.3fms per vector (%.1fx); wrote %s",
		res.PartialSparseSecPerV*1e3, res.FullSparseSecPerV*1e3, res.FullOverPartial, out)
}
