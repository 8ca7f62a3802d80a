package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// testNetlist is a small nand2/nand3 circuit with real proximity action:
// the nand3 sees three close arrivals, the nand2 two.
const testNetlist = `
input a b c d
gate g1 nand3 x a b c
gate g2 nand2 y x d
gate g3 inv   z y
output z
`

// newTestServer spins a Server over a synthetic nand2/nand3/inv library.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(dir, 8)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes a JSON answer into out, returning the
// status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s answer: %v", url, err)
		}
	}
	return resp.StatusCode
}

func uploadTestNetlist(t *testing.T, base string) UploadResponse {
	t.Helper()
	var up UploadResponse
	if code := post(t, base+"/v1/netlists", UploadRequest{Netlist: testNetlist}, &up); code != 200 {
		t.Fatalf("upload status %d", code)
	}
	return up
}

// testVector builds a stimulus with all four inputs falling in close
// proximity — the shape that exercises the proximity algorithm.
func testVector(shift float64) []Event {
	return []Event{
		{Net: "a", Dir: "fall", TTPs: 300, TimePs: shift},
		{Net: "b", Dir: "fall", TTPs: 250, TimePs: shift + 15},
		{Net: "c", Dir: "fall", TTPs: 350, TimePs: shift + 40},
		{Net: "d", Dir: "rise", TTPs: 280, TimePs: shift + 20},
	}
}

// refResults computes the ground truth the way cmd/sta does: parse the same
// netlist over the same models, serial AnalyzeBatch.
func refResults(t *testing.T, reg *Registry, batch [][]Event, mode sta.Mode) (*sta.Circuit, []*sta.Result) {
	t.Helper()
	lib := sta.NewLibrary()
	for _, cell := range []string{"nand2", "nand3", "inv"} {
		calc, err := reg.Get(cell)
		if err != nil {
			t.Fatal(err)
		}
		lib.Add(cell, calc)
	}
	c, err := sta.ParseNetlist(strings.NewReader(testNetlist), lib)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([][]sta.PIEvent, len(batch))
	for i, vec := range batch {
		if evs[i], err = resolveVector(c, vec); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.AnalyzeBatch(context.Background(), evs, mode, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c, results
}

// checkVectorAgainstRef requires the wire arrivals to be bit-identical to
// the engine's (the wire carries time*1e12; the comparison applies the same
// conversion, so equality is exact, not approximate).
func checkVectorAgainstRef(t *testing.T, c *sta.Circuit, ref *sta.Result, vr VectorResult, label string) {
	t.Helper()
	byKey := map[string]Arrival{}
	for _, a := range vr.Arrivals {
		byKey[a.Net+"/"+a.Dir] = a
	}
	seen := 0
	for _, po := range c.POs {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			ra, ok := ref.Arrival(po, dir)
			wa, wok := byKey[po.Name+"/"+dir.String()]
			if ok != wok {
				t.Fatalf("%s: net %s %v: present=%v on wire, %v in engine", label, po.Name, dir, wok, ok)
			}
			if !ok {
				continue
			}
			seen++
			if wa.TimePs != ra.Time*1e12 || wa.TTPs != ra.TT*1e12 || wa.UsedInputs != ra.UsedInputs {
				t.Fatalf("%s: net %s %v: wire (%.6f ps, %.6f ps, %d) vs engine (%.6f ps, %.6f ps, %d)",
					label, po.Name, dir, wa.TimePs, wa.TTPs, wa.UsedInputs,
					ra.Time*1e12, ra.TT*1e12, ra.UsedInputs)
			}
		}
	}
	if seen == 0 {
		t.Fatalf("%s: no output arrivals compared — vacuous", label)
	}
}

func TestUploadAndAnalyze(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg})

	up := uploadTestNetlist(t, ts.URL)
	if up.Gates != 3 || up.Levels != 3 {
		t.Fatalf("upload shape %+v, want 3 gates / 3 levels", up)
	}
	if len(up.Inputs) != 4 || len(up.Outputs) != 1 || up.Outputs[0] != "z" {
		t.Fatalf("upload IO %+v", up)
	}

	var resp AnalyzeResponse
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Mode: "prox", Vector: testVector(0)}, &resp)
	if code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	c, refs := refResults(t, reg, [][]Event{testVector(0)}, sta.Proximity)
	checkVectorAgainstRef(t, c, refs[0], resp.VectorResult, "analyze")
	if resp.ProximityEvals == 0 {
		t.Fatal("stimulus produced no proximity evaluations — test is vacuous")
	}

	// nets=all returns internal nets too.
	var all AnalyzeResponse
	post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Nets: "all", Vector: testVector(0)}, &all)
	if len(all.Arrivals) <= len(resp.Arrivals) {
		t.Fatalf("nets=all returned %d arrivals, outputs-only %d", len(all.Arrivals), len(resp.Arrivals))
	}
}

// TestBatchBitIdenticalToSerial is the acceptance check: the batched
// endpoint must reproduce the serial engine (the same arithmetic cmd/sta
// prints) bit for bit, in both modes.
func TestBatchBitIdenticalToSerial(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg})
	up := uploadTestNetlist(t, ts.URL)

	batch := make([][]Event, 12)
	for i := range batch {
		batch[i] = testVector(float64(7 * i))
	}
	for _, mode := range []struct {
		wire string
		m    sta.Mode
	}{{"prox", sta.Proximity}, {"conv", sta.Conventional}} {
		var resp BatchResponse
		code := post(t, ts.URL+"/v1/analyze:batch",
			BatchRequest{Netlist: up.ID, Mode: mode.wire, Vectors: batch}, &resp)
		if code != 200 {
			t.Fatalf("%s: batch status %d", mode.wire, code)
		}
		if len(resp.Results) != len(batch) {
			t.Fatalf("%s: %d results for %d vectors", mode.wire, len(resp.Results), len(batch))
		}
		c, refs := refResults(t, reg, batch, mode.m)
		for i := range batch {
			checkVectorAgainstRef(t, c, refs[i], resp.Results[i],
				fmt.Sprintf("%s vector %d", mode.wire, i))
		}
	}
}

// TestConcurrentHammer fires ≥64 overlapping analyze and batch requests at
// one uploaded netlist. Under -race this is the acceptance proof that the
// registry, the netlist store, and the shared Compiled handle are clean.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg, MaxInflight: 256, Workers: 2})
	up := uploadTestNetlist(t, ts.URL)

	c, refs := refResults(t, reg, [][]Event{testVector(0)}, sta.Proximity)
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				var resp BatchResponse
				code := post(t, ts.URL+"/v1/analyze:batch",
					BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), testVector(9)}}, &resp)
				if code != 200 {
					errs <- fmt.Errorf("client %d: batch status %d", i, code)
				}
				return
			}
			var resp AnalyzeResponse
			code := post(t, ts.URL+"/v1/analyze",
				AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &resp)
			if code != 200 {
				errs <- fmt.Errorf("client %d: status %d", i, code)
				return
			}
			// Every concurrent answer must still be the exact serial result.
			byKey := map[string]Arrival{}
			for _, a := range resp.Arrivals {
				byKey[a.Net+"/"+a.Dir] = a
			}
			for _, po := range c.POs {
				for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
					if ra, ok := ref0Arrival(refs[0], po, dir); ok {
						if wa := byKey[po.Name+"/"+dir.String()]; wa.TimePs != ra.Time*1e12 {
							errs <- fmt.Errorf("client %d: net %s drifted", i, po.Name)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := reg.Stats()
	if st.Hits == 0 {
		t.Fatalf("registry stats %+v: concurrent requests never hit the model cache", st)
	}
	if st.Misses != 3 {
		t.Fatalf("registry stats %+v: want exactly one load per cell (3)", st)
	}
}

func ref0Arrival(r *sta.Result, n *sta.Net, dir waveform.Direction) (sta.Arrival, bool) {
	return r.Arrival(n, dir)
}

// TestOverloadReturns429: with the admission semaphore held full, the next
// request is rejected immediately with Retry-After rather than queued.
func TestOverloadReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	up := uploadTestNetlist(t, ts.URL)

	// Fill the semaphore deterministically (white-box): both slots busy.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	data, _ := json.Marshal(AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// healthz must bypass admission and keep answering under overload.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("healthz under overload: %d", hr.StatusCode)
	}
}

// TestRequestTimeout: a timeout shorter than any analysis yields 504, not a
// hung request.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	up := uploadTestNetlist(t, ts.URL)
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &ErrorResponse{})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
}

func TestNetlistLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNetlists: 2})
	first := uploadTestNetlist(t, ts.URL)
	uploadTestNetlist(t, ts.URL)
	uploadTestNetlist(t, ts.URL)
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: first.ID, Vector: testVector(0)}, &ErrorResponse{})
	if code != http.StatusNotFound {
		t.Fatalf("evicted netlist answered %d, want 404", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown netlist", "/v1/analyze", AnalyzeRequest{Netlist: "n999", Vector: testVector(0)}, 404},
		{"unknown net", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "nope", Dir: "rise", TTPs: 100}}}, 400},
		{"bad dir", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "sideways", TTPs: 100}}}, 400},
		{"bad mode", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Mode: "psychic", Vector: testVector(0)}, 400},
		{"empty vector", "/v1/analyze", AnalyzeRequest{Netlist: up.ID}, 400},
		{"non-positive tt", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "rise", TTPs: 0}}}, 400},
		{"event on internal net", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "x", Dir: "rise", TTPs: 100}}}, 400},
		{"empty vector set", "/v1/analyze:batch", BatchRequest{Netlist: up.ID}, 400},
		{"unknown cell", "/v1/netlists", UploadRequest{Netlist: "input a\ngate g1 xor2 y a a\noutput y"}, 400},
		{"undriven net", "/v1/netlists", UploadRequest{Netlist: "input a\ngate g1 inv y b\noutput y"}, 400},
		{"empty netlist", "/v1/netlists", UploadRequest{}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			if code := post(t, ts.URL+tc.url, tc.body, &er); code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, er.Error, tc.want)
			}
			if er.Error == "" {
				t.Fatal("error answer without message")
			}
		})
	}
}

// TestMetricsEndpoint: /metrics must be valid JSON carrying the request,
// cache and workload counters plus per-endpoint latency histograms.
// TestImplicitOKCountedInStatusClasses pins the statusWriter contract: the
// success paths write JSON bodies without ever calling WriteHeader, so the
// implicit 200 must be captured on the first Write and land in the 2xx
// class counter — not vanish into an unclassified zero status. The class
// counters must always sum to the request count.
func TestImplicitOKCountedInStatusClasses(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A successful upload: handleUpload ends in writeJSON — Write with no
	// explicit WriteHeader, i.e. an implicit 200.
	uploadTestNetlist(t, ts.URL)
	if got := s.Metrics().Status2xx.Value(); got != 1 {
		t.Fatalf("status2xx = %d after one implicit-200 response, want 1", got)
	}

	// An explicit-status error response lands in its own class and must not
	// leak into (or reset) the 2xx count.
	if code := post(t, ts.URL+"/v1/netlists", UploadRequest{Netlist: "gate g bad x y"}, nil); code != 400 {
		t.Fatalf("bad netlist status %d, want 400", code)
	}
	if got := s.Metrics().Status4xx.Value(); got != 1 {
		t.Fatalf("status4xx = %d, want 1", got)
	}
	if got := s.Metrics().Status2xx.Value(); got != 1 {
		t.Fatalf("status2xx = %d after a 4xx response, want still 1", got)
	}

	// Every further implicit-200 response keeps counting.
	uploadTestNetlist(t, ts.URL)
	if got := s.Metrics().Status2xx.Value(); got != 2 {
		t.Fatalf("status2xx = %d after second upload, want 2", got)
	}
	if reqs, classes := 3, s.Metrics().Status2xx.Value()+s.Metrics().Status4xx.Value()+s.Metrics().Status5xx.Value(); classes != int64(reqs) {
		t.Fatalf("status classes sum to %d, want the request count %d", classes, reqs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &AnalyzeResponse{})
	post(t, ts.URL+"/v1/analyze:batch",
		BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), testVector(5)}}, &BatchResponse{})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	reqs, ok := doc["requests"].(map[string]any)
	if !ok || reqs["analyze"] != 1.0 || reqs["analyze:batch"] != 1.0 || reqs["netlists"] != 1.0 {
		t.Fatalf("request counters %v", doc["requests"])
	}
	cache, ok := doc["modelCache"].(map[string]any)
	if !ok || cache["misses"].(float64) < 1 {
		t.Fatalf("cache counters %v", doc["modelCache"])
	}
	if doc["vectors"] != 3.0 {
		t.Fatalf("vectors %v, want 3", doc["vectors"])
	}
	if doc["gatesEvaluated"].(float64) < 9 {
		t.Fatalf("gatesEvaluated %v, want >= 9", doc["gatesEvaluated"])
	}
	lats, ok := doc["latencies"].(map[string]any)
	if !ok || lats["analyze"] == nil {
		t.Fatalf("latencies %v", doc["latencies"])
	}
}
