package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// An empty histogram must render explicit zeroes — the n==0 path used to be
// guarded only implicitly; it must never divide.
func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(histBounds)
	got := h.String()
	var doc struct {
		Count   int64              `json:"count"`
		MeanMs  float64            `json:"meanMs"`
		P50Ms   float64            `json:"p50Ms"`
		P99Ms   float64            `json:"p99Ms"`
		Buckets map[string]float64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatalf("empty histogram is not valid JSON: %v\n%s", err, got)
	}
	if doc.Count != 0 || doc.MeanMs != 0 || doc.P50Ms != 0 || doc.P99Ms != 0 || len(doc.Buckets) != 0 {
		t.Fatalf("empty histogram renders non-zero values: %s", got)
	}
}

// Quantiles interpolate within the bucket that holds the target rank; with
// every observation in one bucket the estimates must land inside that
// bucket's edges and order p50 <= p95 <= p99.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(histBounds)
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Millisecond) // bucket (2ms, 4ms]
	}
	counts, total, _ := h.snapshot()
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	p50 := h.quantile(counts, 0.50)
	p95 := h.quantile(counts, 0.95)
	p99 := h.quantile(counts, 0.99)
	for _, q := range []struct {
		name string
		v    time.Duration
	}{{"p50", p50}, {"p95", p95}, {"p99", p99}} {
		if q.v <= 2*time.Millisecond || q.v > 4*time.Millisecond {
			t.Fatalf("%s = %v, outside the (2ms,4ms] bucket holding every sample", q.name, q.v)
		}
	}
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v", p50, p95, p99)
	}

	// Overflow ranks clamp to the last finite bound instead of inventing a tail.
	h2 := newHistogram(histBounds)
	h2.Observe(10 * time.Second)
	c2, _, _ := h2.snapshot()
	if got := h2.quantile(c2, 0.5); got != histBounds[len(histBounds)-1] {
		t.Fatalf("overflow quantile = %v, want clamp to %v", got, histBounds[len(histBounds)-1])
	}
}

// Observe is lock-free; under the race detector this test proves the atomics
// carry the contention, and the totals must still be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(histBounds)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
				if i%100 == 0 {
					_ = h.String() // concurrent render must not race
				}
			}
		}(w)
	}
	wg.Wait()
	_, total, sum := h.snapshot()
	if total != workers*per {
		t.Fatalf("count = %d, want %d", total, workers*per)
	}
	wantSum := time.Duration(0)
	for w := 0; w < workers; w++ {
		wantSum += time.Duration(w+1) * time.Millisecond * per
	}
	if sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
}

// The Prometheus rendering must emit cumulative le buckets ending at +Inf
// with the total count, plus _sum and _count samples.
func TestHistogramProm(t *testing.T) {
	h := newHistogram(histBounds)
	h.Observe(300 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(10 * time.Second) // overflow
	var b strings.Builder
	h.writeProm(&b, "x_seconds", `endpoint="analyze"`)
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{endpoint="analyze",le="0.00025"} 0`,
		`x_seconds_bucket{endpoint="analyze",le="+Inf"} 3`,
		`x_seconds_count{endpoint="analyze"} 3`,
		`x_seconds_sum{endpoint="analyze"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
}

// /metrics?format=prom after real traffic: the exposition must carry the
// request counters, phase histograms, and runtime gauges.
func TestMetricsPromEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	up := uploadTestNetlist(t, ts.URL)
	var ar AnalyzeResponse
	if code := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &ar); code != 200 {
		t.Fatalf("analyze status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`stad_requests_total{endpoint="analyze"} 1`,
		`stad_requests_total{endpoint="netlists"} 1`,
		`stad_responses_total{class="2xx"} 2`,
		"stad_vectors_total 1",
		"stad_goroutines ",
		"stad_heap_alloc_bytes ",
		`stad_request_duration_seconds_count{endpoint="analyze"} 1`,
		`stad_phase_duration_seconds_bucket{phase="eval",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, out)
		}
	}

	// Unknown formats are a 400, not silently JSON.
	resp2, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status = %d, want 400", resp2.StatusCode)
	}
}

// The JSON /metrics document must now carry phase histograms and the
// runtime gauges alongside the original counters.
func TestMetricsJSONPhases(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	up := uploadTestNetlist(t, ts.URL)
	var ar AnalyzeResponse
	if code := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &ar); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	phases, ok := doc["phases"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no phases object: %v", doc)
	}
	evalHist, ok := phases["eval"].(map[string]any)
	if !ok || evalHist["count"].(float64) < 1 {
		t.Fatalf("eval phase histogram missing or empty: %v", phases)
	}
	if doc["goroutines"].(float64) <= 0 {
		t.Fatalf("goroutines gauge = %v", doc["goroutines"])
	}
	if doc["heapAllocBytes"].(float64) <= 0 {
		t.Fatalf("heapAllocBytes gauge = %v", doc["heapAllocBytes"])
	}
	// The always-on phases all saw this analysis.
	for _, p := range []obs.Phase{obs.PhaseSchedule, obs.PhaseSeed, obs.PhaseEval, obs.PhaseCommit} {
		if _, total, _ := s.Metrics().Phase(p).snapshot(); total < 1 {
			t.Fatalf("phase %v histogram empty after an analyze", p)
		}
	}
	// An unfiltered analyze spends nothing on pulse judgment; a zero
	// observation would drag the glitch percentiles to 0.
	if _, total, _ := s.Metrics().Phase(obs.PhaseGlitch).snapshot(); total != 0 {
		t.Fatalf("glitch phase histogram holds %d observations after an unfiltered analyze, want 0", total)
	}
}

// /v1/explain runs an analysis, so /metrics counts it like /v1/analyze: one
// vector with its gate and evaluation counters, in the expvar totals and
// their stad_*_total twins.
func TestExplainCountsInMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	up := uploadTestNetlist(t, ts.URL)
	var er ExplainResponse
	if code := post(t, ts.URL+"/v1/explain", ExplainRequest{Netlist: up.ID, Nets: []string{"z"}, Vector: testVector(0)}, &er); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	var ar AnalyzeResponse
	if code := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &ar); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	if ar.GatesEvaluated == 0 || ar.ProximityEvals == 0 {
		t.Fatalf("the vector exercises nothing: %+v", ar.VectorResult)
	}
	m := s.Metrics()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"vectors", m.Vectors.Value(), 2},
		{"gatesEvaluated", m.GatesEvaluated.Value(), 2 * int64(ar.GatesEvaluated)},
		{"proximityEvals", m.ProximityEvals.Value(), 2 * int64(ar.ProximityEvals)},
		{"singleArcEvals", m.SingleArcEvals.Value(), 2 * int64(ar.SingleArcEvals)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d after one explain and one analyze of the same vector, want %d", c.name, c.got, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stad_vectors_total 2", fmt.Sprintf("stad_gates_evaluated_total %d", 2*ar.GatesEvaluated)} {
		if !strings.Contains(string(body), "\n"+want+"\n") {
			t.Errorf("prom exposition lacks %q", want)
		}
	}
}
