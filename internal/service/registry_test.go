package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/macromodel"
)

// writeSynthLibrary fills dir with synthetic characterized models (the same
// JSON shape charz emits) and returns the directory.
func writeSynthLibrary(t *testing.T, dir string, cells ...string) {
	t.Helper()
	for _, cell := range cells {
		var m *macromodel.GateModel
		switch {
		case cell == "inv":
			m = macromodel.SynthModel("inv", 1)
		case strings.HasPrefix(cell, "nand"):
			n := int(cell[len(cell)-1] - '0')
			m = macromodel.SynthModel("nand", n)
		default:
			t.Fatalf("writeSynthLibrary: unknown cell %q", cell)
		}
		if err := m.Save(filepath.Join(dir, cell+".json")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryHitMiss(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3")
	r := NewRegistry(dir, 8)

	c1, err := r.Get("nand2")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Get("nand2")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Get returned a different calculator (cache missed)")
	}
	if _, err := r.Get("nand3"); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Resident != 2 {
		t.Fatalf("stats %+v, want 2 misses / 1 hit / 2 resident", st)
	}
}

// TestRegistrySingleflight holds the first load open while more requests
// for the same cell queue up: exactly one file load must happen, and every
// waiter must receive the same calculator.
func TestRegistrySingleflight(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2")
	r := NewRegistry(dir, 8)

	const waiters = 16
	loading := make(chan struct{}) // closed when the loader is inside load()
	release := make(chan struct{}) // closed once the waiters have launched
	var hookOnce sync.Once         // the hook only gates the first load
	r.testLoadHook = func(string) {
		hookOnce.Do(func() {
			close(loading)
			<-release
		})
	}

	results := make(chan interface{}, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := r.Get("nand2")
		if err != nil {
			results <- err
			return
		}
		results <- c
	}()
	<-loading

	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := r.Get("nand2")
			if err != nil {
				results <- err
				return
			}
			results <- c
		}()
	}
	// Every waiter either blocks on the in-flight entry or, launching after
	// the release, hits the resident one — both count as cache hits.
	close(release)
	wg.Wait()
	close(results)

	var first interface{}
	n := 0
	for res := range results {
		if err, ok := res.(error); ok {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Fatal("waiters got different calculators")
		}
		n++
	}
	if n != waiters+1 {
		t.Fatalf("collected %d results, want %d", n, waiters+1)
	}
	st := r.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d loads for %d concurrent requests, want exactly 1 (stats %+v)", st.Misses, waiters+1, st)
	}
	if st.Hits != int64(waiters) {
		t.Fatalf("hits %d, want %d", st.Hits, waiters)
	}
}

func TestRegistryEviction(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
	r := NewRegistry(dir, 2)
	for _, cell := range []string{"nand2", "nand3", "inv"} {
		if _, err := r.Get(cell); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 resident / 1 eviction", st)
	}
	// nand2 was the LRU victim: getting it again is a fresh load.
	if _, err := r.Get("nand2"); err != nil {
		t.Fatal(err)
	}
	if st = r.Stats(); st.Misses != 4 {
		t.Fatalf("misses %d, want 4 (evicted cell reloaded)", st.Misses)
	}
}

// TestRegistryEvictionSkipsInflight applies eviction pressure while a slow
// load is in flight: a capacity-1 registry is overflowed with other cells
// while the first cell's file read is held open and waiters are parked on
// it. The in-flight entry must survive the evictions — every waiter gets
// the one shared calculator, and the cell is loaded exactly once. Runs in
// the -race matrix: the loader, the waiters and the evicting Gets all touch
// the entry concurrently.
func TestRegistryEvictionSkipsInflight(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
	r := NewRegistry(dir, 1)

	loading := make(chan struct{}) // closed when the nand2 loader is inside load()
	release := make(chan struct{}) // closed once eviction pressure has been applied
	var hookOnce sync.Once
	r.testLoadHook = func(name string) {
		if name == "nand2" {
			hookOnce.Do(func() {
				close(loading)
				<-release
			})
		}
	}

	const waiters = 8
	results := make(chan interface{}, waiters+1)
	var wg sync.WaitGroup
	get := func() {
		defer wg.Done()
		c, err := r.Get("nand2")
		if err != nil {
			results <- err
			return
		}
		results <- c
	}
	wg.Add(1)
	go get()
	<-loading
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go get()
	}

	// While nand2's load is open, churn the single cache slot: nand3 fills
	// it, inv overflows it and forces an eviction pass. Neither may disturb
	// the in-flight nand2 entry.
	if _, err := r.Get("nand3"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("inv"); err != nil {
		t.Fatal(err)
	}

	close(release)
	wg.Wait()
	close(results)

	var first interface{}
	for res := range results {
		if err, ok := res.(error); ok {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Fatal("waiters got different calculators — in-flight entry was dropped and reloaded")
		}
	}
	st := r.Stats()
	if st.Misses != 3 {
		t.Fatalf("misses %d, want 3 (one per cell; an evicted in-flight entry would reload nand2)", st.Misses)
	}
	if st.Hits != waiters {
		t.Fatalf("hits %d, want %d (every waiter coalesces onto the in-flight load)", st.Hits, waiters)
	}
	if st.Resident != 1 {
		t.Fatalf("resident %d, want 1 (capacity enforced after the slow load lands)", st.Resident)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions %d, want 2 (nand3 by inv, inv by nand2)", st.Evictions)
	}
}

func TestRegistryBadNamesAndMissingFiles(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2")
	r := NewRegistry(dir, 4)
	for _, name := range []string{"", "../nand2", "a/b", "nand2.json", "x y"} {
		if _, err := r.Get(name); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	// A missing file errors but is not cached: creating it makes the next
	// Get succeed.
	if _, err := r.Get("inv"); err == nil {
		t.Fatal("missing cell loaded")
	}
	writeSynthLibrary(t, dir, "inv")
	if _, err := r.Get("inv"); err != nil {
		t.Fatalf("cell not retried after failed load: %v", err)
	}
	if st := r.Stats(); st.LoadErrors != 1 {
		t.Fatalf("loadErrors %d, want 1", st.LoadErrors)
	}
}

// TestUploadErrorsHideTheLibrary: an upload naming a cell the library
// lacks, or one whose model file is broken, gets a 400 that names the cell
// and the reason once, and neither the library directory nor the file.
func TestUploadErrorsHideTheLibrary(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "inv")
	if err := os.WriteFile(filepath.Join(dir, "nand2.json"), []byte(`{"numInputs": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Registry: NewRegistry(dir, 4)})
	for _, tc := range []struct{ cell, want string }{
		{"nor9", `cell \"nor9\": no model in the library`},
		{"nand2", `cell \"nand2\": invalid model: numInputs 0, want \u003e= 1`},
	} {
		netlist := "input a b\ngate g1 " + tc.cell + " y a b\noutput y"
		data, err := json.Marshal(UploadRequest{Netlist: netlist})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/netlists", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %s, want 400 with %s", tc.cell, resp.StatusCode, body, tc.want)
		}
		if strings.Contains(string(body), dir) || strings.Contains(string(body), ".json") {
			t.Errorf("%s: the answer discloses the library: %s", tc.cell, body)
		}
	}
}
