package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBenchGuardFlightRecorder guards the flight recorder's hot-path cost:
// the standard 4096-vector / 8-client batch workload must run within 5% of
// the recorder-off configuration. Opt-in because wall-clock assertions are
// meaningless on noisy CI workers:
//
//	BENCH_GUARD=1 go test ./internal/service -run TestBenchGuardFlightRecorder -v
//
// Both configurations run in the same process back to back, so machine speed
// cancels out of the ratio.
func TestBenchGuardFlightRecorder(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to enforce the flight-recorder overhead bound")
	}
	const (
		margin          = 1.05
		clients         = 8
		batchesPerRun   = 128
		vectorsPerBatch = 32 // 128*32 = 4096 vectors per measured run
		reps            = 24
	)

	// setup builds a server plus a timed workload pass: 8 clients draining
	// 128 pre-marshaled batch bodies.
	setup := func(flightSize int) func() time.Duration {
		_, ts := newTestServer(t, Config{
			MaxInflight: clients, FlightRecorderSize: flightSize,
		})
		up := uploadTestNetlist(t, ts.URL)
		bodies := make([][]byte, batchesPerRun)
		for b := range bodies {
			vecs := make([][]Event, vectorsPerBatch)
			for v := range vecs {
				vecs[v] = testVector(float64((b*vectorsPerBatch + v) % 97))
			}
			data, err := json.Marshal(BatchRequest{Netlist: up.ID, Mode: "prox", Vectors: vecs})
			if err != nil {
				t.Fatal(err)
			}
			bodies[b] = data
		}
		// A dedicated client with enough idle connections for every worker:
		// the default transport keeps only 2 per host, and the constant
		// redialing would drown the measurement in connection-setup noise.
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
		t.Cleanup(client.CloseIdleConnections)
		return func() time.Duration {
			runtime.GC() // start every pass from the same heap state
			work := make(chan []byte, batchesPerRun)
			for _, b := range bodies {
				work <- b
			}
			close(work)
			start := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for body := range work {
						resp, err := client.Post(ts.URL+"/v1/analyze:batch", "application/json", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						if resp.StatusCode != http.StatusOK {
							t.Errorf("batch status %d", resp.StatusCode)
						}
						resp.Body.Close()
						if t.Failed() {
							return
						}
					}
				}()
			}
			wg.Wait()
			return time.Since(start)
		}
	}

	offPass := setup(-1) // recorder disabled: no ring, no per-request trace
	onPass := setup(0)   // recorder at the default size, default tail threshold
	for w := 0; w < 2; w++ {
		offPass() // warm-up both servers: page in netlists, grow pools
		onPass()
	}

	// Interleave the passes so machine-wide noise (a shared-CPU steal, a
	// background daemon) lands on both configurations instead of biasing
	// whichever happened to run second — and alternate which config goes
	// first within each pair, so drift across a pair (thermal throttling,
	// a GC left over from the first pass) doesn't systematically charge one
	// side. Each rep yields one pairwise ratio of adjacent-in-time passes;
	// the enforced statistic is the trimmed mean of those ratios (outer
	// quartiles dropped), which rejects the multi-second noise windows a
	// shared host inflicts on single passes, while a real regression shifts
	// every pair and survives the trimming.
	ratios := make([]float64, reps)
	var offTotal, onTotal time.Duration
	for r := 0; r < reps; r++ {
		var dOff, dOn time.Duration
		if r%2 == 0 {
			dOff = offPass()
			dOn = onPass()
		} else {
			dOn = onPass()
			dOff = offPass()
		}
		ratios[r] = dOn.Seconds() / dOff.Seconds()
		offTotal += dOff
		onTotal += dOn
	}
	if t.Failed() {
		t.Fatal("workload errored; overhead ratio is meaningless")
	}
	sort.Float64s(ratios)
	trimmed := ratios[reps/4 : reps-reps/4]
	ratio := 0.0
	for _, r := range trimmed {
		ratio += r
	}
	ratio /= float64(len(trimmed))
	vecsPerSec := func(total time.Duration) float64 {
		return float64(reps*batchesPerRun*vectorsPerBatch) / total.Seconds()
	}
	t.Logf("recorder off: %v total (%.0f vec/s), on: %v total (%.0f vec/s), trimmed-mean ratio %.3f (margin %.2f, %d interleaved reps)",
		offTotal, vecsPerSec(offTotal), onTotal, vecsPerSec(onTotal), ratio, margin, reps)
	// A guard can only enforce a margin it can resolve. When the spread of
	// pairwise ratios dwarfs the margin band, the host is in a noise storm
	// (shared-CPU steal windows lasting whole seconds) and any verdict would
	// be a coin flip — report that honestly instead of failing at random.
	if iqr := ratios[reps-reps/4-1] - ratios[reps/4]; iqr > 2*(margin-1) {
		t.Skipf("host too noisy to resolve a %.0f%% margin (pairwise ratio IQR %.1f%%); rerun on quieter hardware",
			(margin-1)*100, iqr*100)
	}
	if ratio > margin {
		t.Errorf("flight recorder costs %.1f%% throughput (> %.0f%% budget): on %v vs off %v over %d reps",
			(ratio-1)*100, (margin-1)*100, onTotal, offTotal, reps)
	}
}
