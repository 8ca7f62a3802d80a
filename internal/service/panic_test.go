package service

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// flakyDual is a dual backend that panics while armed and otherwise reads
// the model's own tables, so a disarmed server answers exactly as usual.
type flakyDual struct {
	m     *macromodel.GateModel
	armed atomic.Bool
}

func (b *flakyDual) Ratios(ref, other int, dir waveform.Direction, tauRef, tauOther, sStar, d1, tt1 float64) (float64, float64, error) {
	if b.armed.Load() {
		panic("dual backend defect")
	}
	dm := b.m.Dual(ref, other, dir)
	x1, x2, x3 := tauRef/d1, tauOther/d1, sStar/d1
	return dm.EvalDelayRatio(x1, x2, x3), dm.EvalTTRatio(x1, x2, x3), nil
}

// TestEnginePanicAnswers500: a panic inside the engine — on the serial path
// at Workers 1, on a walk worker goroutine at Workers 2 — fails only its
// request with a 500 naming the gate but not the panic text, logs the panic
// with the stack down to the panicking frame, counts in stad_panics_total,
// and the daemon answers the next request normally.
func TestEnginePanicAnswers500(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
		reg := NewRegistry(dir, 8)
		// Resolve the cells before the server starts, so the backend is in
		// place before any request can read the calculator.
		var flaky []*flakyDual
		for _, cell := range []string{"nand2", "nand3"} {
			calc, err := reg.Get(cell)
			if err != nil {
				t.Fatal(err)
			}
			fd := &flakyDual{m: calc.Model}
			calc.Dual = fd
			flaky = append(flaky, fd)
		}
		var logMu sync.Mutex
		var logBuf bytes.Buffer
		logger := slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
			logMu.Lock()
			defer logMu.Unlock()
			return logBuf.Write(p)
		}), nil))
		_, ts := newTestServer(t, Config{Registry: reg, Workers: workers, Logger: logger})
		up := uploadTestNetlist(t, ts.URL)
		req := AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}

		var want AnalyzeResponse
		if code := post(t, ts.URL+"/v1/analyze", req, &want); code != 200 {
			t.Fatalf("Workers %d: disarmed analyze status %d", workers, code)
		}
		for _, fd := range flaky {
			fd.armed.Store(true)
		}
		var er ErrorResponse
		if code := post(t, ts.URL+"/v1/analyze", req, &er); code != http.StatusInternalServerError {
			t.Fatalf("Workers %d: panicking analyze status %d (%s), want 500", workers, code, er.Error)
		}
		if !strings.Contains(er.Error, "sta: gate ") || strings.Contains(er.Error, "dual backend defect") {
			t.Errorf("Workers %d: 500 body %q does not name the gate, or echoes the panic text", workers, er.Error)
		}
		logMu.Lock()
		var panicLine string
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(line, `"msg":"engine panic"`) {
				panicLine = line
			}
		}
		logMu.Unlock()
		if !strings.Contains(panicLine, "dual backend defect") || !strings.Contains(panicLine, "flakyDual).Ratios") {
			t.Errorf("Workers %d: no engine panic log line with the panic text and its stack: %q", workers, panicLine)
		}
		for _, fd := range flaky {
			fd.armed.Store(false)
		}
		var got AnalyzeResponse
		if code := post(t, ts.URL+"/v1/analyze", req, &got); code != 200 {
			t.Fatalf("Workers %d: analyze after the panic: status %d", workers, code)
		}
		if len(got.Arrivals) == 0 || !reflect.DeepEqual(got.Arrivals, want.Arrivals) {
			t.Errorf("Workers %d: answer after the panic %+v differs from before %+v", workers, got.Arrivals, want.Arrivals)
		}

		resp, err := http.Get(ts.URL + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "\nstad_panics_total 1\n") {
			t.Errorf("Workers %d: stad_panics_total is not 1 in\n%s", workers, body)
		}
	}
}
