package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// testCircuit builds a tiny two-gate circuit with synthetic models, enough
// for ParseEvents to resolve net names.
func testCircuit(t *testing.T) *sta.Circuit {
	t.Helper()
	lib := sta.NewLibrary()
	lib.Add("nand2", core.NewCalculator(macromodel.SynthModel("nand", 2)))
	lib.Add("inv", core.NewCalculator(macromodel.SynthModel("inv", 1)))
	const netlist = `
input a b
gate g1 nand2 n1 a b
gate g2 inv   y n1
output y
`
	c, err := sta.ParseNetlist(strings.NewReader(netlist), lib)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compile levelizes a test circuit into its analysis handle.
func compile(t *testing.T, c *sta.Circuit) *sta.Compiled {
	t.Helper()
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBatchSplitsVectors(t *testing.T) {
	c := testCircuit(t)
	batch, err := parseBatch(c, "a:rise:300:0,b:rise:250:30;a:fall:200:0;b:r:100:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("got %d vectors, want 3", len(batch))
	}
	if len(batch[0]) != 2 || len(batch[1]) != 1 || len(batch[2]) != 1 {
		t.Fatalf("vector sizes %d/%d/%d, want 2/1/1", len(batch[0]), len(batch[1]), len(batch[2]))
	}
	if batch[0][0].Net.Name != "a" || batch[1][0].Net.Name != "a" || batch[2][0].Net.Name != "b" {
		t.Fatal("events assigned to the wrong vectors")
	}
}

func TestParseBatchSkipsEmptySegments(t *testing.T) {
	c := testCircuit(t)
	// Leading, doubled, and trailing separators — plus whitespace-only
	// segments — must all be ignored, not parsed as empty vectors.
	batch, err := parseBatch(c, ";a:rise:300:0;;  ;b:fall:200:10;")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("got %d vectors, want 2", len(batch))
	}
}

func TestParseBatchAllEmpty(t *testing.T) {
	c := testCircuit(t)
	for _, spec := range []string{"", ";", " ; ; "} {
		if _, err := parseBatch(c, spec); err == nil {
			t.Errorf("spec %q: expected error for all-empty batch", spec)
		}
	}
}

// Duplicate PI events across segments are legal: the vectors are independent
// stimuli sharing one levelization, so each may stimulate the same input.
func TestParseBatchDuplicateEventsAcrossSegments(t *testing.T) {
	c := testCircuit(t)
	batch, err := parseBatch(c, "a:rise:300:0;a:rise:300:0;a:rise:300:50")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("got %d vectors, want 3", len(batch))
	}
	// And each vector still analyzes cleanly on its own.
	if _, err := compile(t, c).AnalyzeBatch(context.Background(), batch, sta.Proximity, sta.Options{Workers: 1}); err != nil {
		t.Fatalf("batch with repeated PI events failed to analyze: %v", err)
	}
}

func TestParseBatchMalformedEvents(t *testing.T) {
	c := testCircuit(t)
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"a:rise:300:0;b:sideways:200:10", "vector 1"},   // bad direction, right index
		{"a:rise:300:0;;nope:rise:100:0", "unknown net"}, // unknown net after a skipped segment
		{"a:rise:300", "want net:dir:tt_ps:time_ps"},     // missing field
		{"a:rise:-5:0", "bad transition time"},           // non-positive tt
		{"a:rise:300:xyz", "bad time"},                   // unparseable arrival
		{"a:rise:300:0;b:fall:zz:0", "vector 1"},         // second vector's tt malformed
	}
	for _, tc := range cases {
		_, err := parseBatch(c, tc.spec)
		if err == nil {
			t.Errorf("spec %q: expected error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

// The -server client parses the same syntax without a Circuit; its errors
// must carry the vector index too, and blank segments behave identically.
func TestParseWireBatch(t *testing.T) {
	vecs, err := parseWireBatch("a:rise:300:0,b:r:250:30;;a:fall:200:5;")
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 2 || len(vecs[0]) != 2 || len(vecs[1]) != 1 {
		t.Fatalf("got %d vectors (sizes %v), want 2", len(vecs), []int{len(vecs[0])})
	}
	if vecs[1][0].Net != "a" || vecs[1][0].Dir != "fall" || vecs[1][0].TTPs != 200 || vecs[1][0].TimePs != 5 {
		t.Fatalf("wire event mismatch: %+v", vecs[1][0])
	}
	for _, spec := range []string{"", ";", "a:rise:300:0;b:bad:1:2", "a:rise:0:0"} {
		if _, err := parseWireBatch(spec); err == nil {
			t.Errorf("spec %q: expected error", spec)
		}
	}
	if _, err := parseWireBatch("ok:rise:1:0;x:rise:nan-ish:0"); err == nil || !strings.Contains(err.Error(), "vector 1") {
		t.Errorf("error %v does not carry the vector index", err)
	}
}

// TestParseDelta: the -delta/-delta-remove syntax resolves against circuit
// nets and the parsed edit re-times to exactly what a full analysis of the
// edited vector produces.
func TestParseDelta(t *testing.T) {
	c := testCircuit(t)
	delta, err := parseDelta(c, "a:rise:300:40", "b:r")
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Set) != 1 || delta.Set[0].Net.Name != "a" {
		t.Fatalf("bad set: %+v", delta.Set)
	}
	if len(delta.Remove) != 1 || delta.Remove[0].Net.Name != "b" {
		t.Fatalf("bad remove: %+v", delta.Remove)
	}

	base, err := sta.ParseEvents(c, "a:rise:300:0,b:rise:250:30")
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	ctx := context.Background()
	res, err := p.Analyze(ctx, base, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := p.AnalyzeDelta(ctx, res, delta, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	edited, err := sta.ParseEvents(c, "a:rise:300:40")
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Analyze(ctx, edited, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Compare every net/direction bit-exactly.
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			da, dok := dres.Arrival(n, dir)
			fa, fok := full.Arrival(n, dir)
			if dok != fok || da != fa {
				t.Errorf("net %s %v: delta (%v %+v) vs full (%v %+v)", name, dir, dok, da, fok, fa)
			}
		}
	}

	for _, bad := range []struct{ set, rm string }{
		{"nope:rise:300:0", ""}, {"", "nope:r"}, {"", "a"}, {"", "a:sideways"},
	} {
		if _, err := parseDelta(c, bad.set, bad.rm); err == nil {
			t.Errorf("parseDelta(%q, %q): expected error", bad.set, bad.rm)
		}
	}
}

// TestParseWireDelta: the -server client's syntactic-only counterpart.
func TestParseWireDelta(t *testing.T) {
	set, remove, err := parseWireDelta("a:rise:300:40,b:f:200:10", "b:r, c:fall")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Net != "a" || set[1].Dir != "f" {
		t.Fatalf("bad set: %+v", set)
	}
	if len(remove) != 2 || remove[0].Net != "b" || remove[1].Dir != "fall" {
		t.Fatalf("bad remove: %+v", remove)
	}
	for _, bad := range []struct{ set, rm string }{
		{"a:rise:300", ""}, {"", "a"}, {"", "a:sideways"}, {"a:rise:300:0;b:rise:1:0", ""},
	} {
		if _, _, err := parseWireDelta(bad.set, bad.rm); err == nil {
			t.Errorf("parseWireDelta(%q, %q): expected error", bad.set, bad.rm)
		}
	}
}

// TestTraceFileIsValidChrome: the -trace path must produce a file the
// Chrome trace viewer loads — decoded and structurally checked by the same
// validator CI runs against the shipped binary.
func TestTraceFileIsValidChrome(t *testing.T) {
	c := testCircuit(t)
	evs, err := sta.ParseEvents(c, "a:rise:300:0,b:rise:250:30")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := compile(t, c).Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file is empty")
	}
}

// TestPrintStatsRoundsBeforeFiltering: the phases line rounds each phase to
// the microsecond before it drops empty ones, so a phase under half a
// microsecond is left out instead of printed as "cones=0s".
func TestPrintStatsRoundsBeforeFiltering(t *testing.T) {
	var s sta.Stats
	s.Phases[obs.PhaseCones] = 400 * time.Nanosecond
	s.Phases[obs.PhaseSeed] = 600 * time.Nanosecond
	s.Phases[obs.PhaseEval] = 1500 * time.Microsecond
	s.Wall = 2 * time.Millisecond
	var b strings.Builder
	printStats(&b, s)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if got, want := lines[len(lines)-1], "phases: seed=1µs eval=1.5ms wall=2ms"; got != want {
		t.Errorf("phases line %q, want %q", got, want)
	}
}
