package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/macromodel"
	"repro/internal/service"
	"repro/internal/sta"
)

// syncBuffer guards the log buffer: serveListeners logs from several
// goroutines while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs serveListeners on ephemeral ports with a synthetic
// library, returning the base URLs, the log buffer, and the exit channel.
func startDaemon(t *testing.T, withOps bool) (base, opsBase string, logs *syncBuffer, done chan error) {
	t.Helper()
	dir := t.TempDir()
	for _, cell := range []struct {
		name, kind string
		n          int
	}{{"inv", "inv", 1}, {"nand2", "nand", 2}, {"nand3", "nand", 3}} {
		if err := macromodel.SynthModel(cell.kind, cell.n).Save(filepath.Join(dir, cell.name+".json")); err != nil {
			t.Fatal(err)
		}
	}
	cfg := service.Config{Registry: service.NewRegistry(dir, 8), Workers: 2}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var opsLn net.Listener
	if withOps {
		if opsLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		opsBase = "http://" + opsLn.Addr().String()
	}
	logs = &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(logs, nil))
	done = make(chan error, 1)
	go func() { done <- serveListeners(ln, opsLn, cfg, 10*time.Second, logger) }()
	base = "http://" + ln.Addr().String()

	// Wait until the service answers — by then the signal handler inside
	// serveListeners is installed too (registered before the listener goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, opsBase, logs, done
}

// uploadDrainNetlist uploads a synthetic netlist big enough that a batch
// takes observable wall time.
func uploadDrainNetlist(t *testing.T, base string, gates int) (service.UploadResponse, *sta.Circuit) {
	t.Helper()
	circuit, err := sta.SynthRandom(32, gates, 7)
	if err != nil {
		t.Fatal(err)
	}
	var netText strings.Builder
	if err := sta.WriteNetlist(&netText, circuit); err != nil {
		t.Fatal(err)
	}
	var up service.UploadResponse
	if err := postJSON(base+"/v1/netlists", service.UploadRequest{Netlist: netText.String()}, &up); err != nil {
		t.Fatal(err)
	}
	return up, circuit
}

// postJSON posts req as JSON and decodes a 200 answer into resp.
func postJSON(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var er service.ErrorResponse
		json.NewDecoder(r.Body).Decode(&er)
		return fmt.Errorf("%s: status %d: %s", url, r.StatusCode, er.Error)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func wireVector(circuit *sta.Circuit, seed int64) []service.Event {
	events := sta.SynthEvents(circuit, seed)
	vec := make([]service.Event, len(events))
	for k, ev := range events {
		dir := "rise"
		if ev.Dir.String() == "falling" {
			dir = "fall"
		}
		vec[k] = service.Event{Net: ev.Net.Name, Dir: dir, TTPs: ev.TT * 1e12, TimePs: ev.Time * 1e12}
	}
	return vec
}

// TestServeDrainsOnSIGTERM: a SIGTERM while a batch is in flight must let
// the batch finish (200, full results), exit serveListeners cleanly, and
// log the drain with its duration. This was the satellite bugfix: the old
// drain path wrote nothing structured about what it waited for.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	base, _, logs, done := startDaemon(t, false)
	up, circuit := uploadDrainNetlist(t, base, 3000)

	const nVec = 64
	vecs := make([][]service.Event, nVec)
	for i := range vecs {
		vecs[i] = wireVector(circuit, int64(i))
	}
	reqDone := make(chan error, 1)
	var resp service.BatchResponse
	go func() {
		reqDone <- postJSON(base+"/v1/analyze:batch", service.BatchRequest{Netlist: up.ID, Vectors: vecs}, &resp)
	}()

	// Give the batch a moment to be admitted, then signal ourselves.
	time.Sleep(20 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight batch was cut off by the drain: %v", err)
	}
	if len(resp.Results) != nVec {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), nVec)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveListeners returned %v after graceful drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serveListeners did not exit after SIGTERM")
	}

	// The structured shutdown story must be in the log: the draining line
	// with the in-flight count and the drained line with a duration.
	var sawDraining, sawDrained bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		switch rec["msg"] {
		case "shutdown signal received, draining":
			sawDraining = true
			if _, ok := rec["inFlight"].(float64); !ok {
				t.Fatalf("draining line lacks inFlight: %v", rec)
			}
		case "drained":
			sawDrained = true
			if d, ok := rec["drainDur"].(string); !ok || d == "" {
				t.Fatalf("drained line lacks drainDur: %v", rec)
			}
		}
	}
	if !sawDraining || !sawDrained {
		t.Fatalf("shutdown log incomplete (draining=%v drained=%v):\n%s", sawDraining, sawDrained, logs.String())
	}
}

// The ops listener must serve pprof and the service's metrics off the
// service port.
func TestOpsListener(t *testing.T) {
	base, opsBase, _, done := startDaemon(t, true)
	up, circuit := uploadDrainNetlist(t, base, 200)
	var ar service.AnalyzeResponse
	if err := postJSON(base+"/v1/analyze", service.AnalyzeRequest{Netlist: up.ID, Vector: wireVector(circuit, 1)}, &ar); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/healthz", "/metrics?format=prom"} {
		resp, err := http.Get(opsBase + path)
		if err != nil {
			t.Fatalf("ops %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ops %s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics?format=prom" && !strings.Contains(string(body), "stad_requests_total") {
			t.Fatalf("ops metrics missing counters:\n%s", body)
		}
	}
	// pprof must NOT be reachable on the service port.
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed on the service port")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveListeners returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serveListeners did not exit after SIGTERM")
	}
}
