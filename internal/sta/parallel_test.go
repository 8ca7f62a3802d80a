package sta_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// TestDeepChainLevelization is the regression for the recursion-unsafe
// topological sort: the seed's recursive DFS walked a 100k-gate inverter
// chain one stack frame per gate and crashed; the iterative Kahn
// levelization must handle it in one pass, and the critical path must trace
// all the way back to the primary input.
func TestDeepChainLevelization(t *testing.T) {
	const depth = 100_000
	c, in, out, err := sta.SynthChain(depth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile(t, c).Analyze(context.Background(), []sta.PIEvent{{Net: in, Dir: waveform.Rising, Time: 0, TT: 200e-12}},
		sta.Proximity, sta.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Levels != depth || res.Stats.GatesEvaluated != depth {
		t.Fatalf("levels=%d gates=%d, want %d each", res.Stats.Levels, res.Stats.GatesEvaluated, depth)
	}
	// Even depth: the output transitions in the input's direction.
	arr, ok := res.Arrival(out, waveform.Rising)
	if !ok || arr.Time <= 0 {
		t.Fatalf("missing or non-positive output arrival (ok=%v t=%g)", ok, arr.Time)
	}
	path, err := res.CriticalPath(out, waveform.Rising)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != depth+1 || path[0].Net != in {
		t.Fatalf("path length %d (want %d), first net %s", len(path), depth+1, path[0].Net.Name)
	}
}

// sameArrival is bit-exact equality — the parallel schedule must not change
// the arithmetic at all.
func sameArrival(a, b sta.Arrival) bool {
	return a.Dir == b.Dir && a.Time == b.Time && a.TT == b.TT &&
		a.FromGate == b.FromGate && a.FromPin == b.FromPin && a.UsedInputs == b.UsedInputs
}

// compareResults asserts that every net's arrivals match exactly between
// two analyses of the same circuit.
func compareResults(t *testing.T, c *sta.Circuit, ref, got *sta.Result, label string) {
	t.Helper()
	mismatches := 0
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			ra, rok := ref.Arrival(n, dir)
			ga, gok := got.Arrival(n, dir)
			if rok != gok || (rok && !sameArrival(ra, ga)) {
				if mismatches < 5 {
					t.Errorf("%s: net %s %v: serial (%v %+v) vs parallel (%v %+v)",
						label, name, dir, rok, ra, gok, ga)
				}
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%s: %d arrival mismatches", label, mismatches)
	}
}

// TestParallelMatchesSerial runs the full equivalence check on a randomized
// ≥5k-gate netlist in both analysis modes: identical arrivals, transition
// times, stats, and critical paths. Running the suite under -race (see the
// tier-1 recipe in ROADMAP.md) also exercises the per-level worker pool for
// data races.
func TestParallelMatchesSerial(t *testing.T) {
	c, err := sta.SynthRandom(64, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	evs := sta.SynthEvents(c, 7)
	p := compile(t, c)
	ctx := context.Background()
	for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
		serial, err := p.Analyze(ctx, evs, mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := p.Analyze(ctx, evs, mode, sta.Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		label := mode.String()
		compareResults(t, c, serial, parallel, label)
		ss, ps := serial.Stats, parallel.Stats
		if ss.Levels != ps.Levels || ss.GatesEvaluated != ps.GatesEvaluated ||
			ss.Evaluations != ps.Evaluations || ss.ProximityEvals != ps.ProximityEvals ||
			ss.SingleArcEvals != ps.SingleArcEvals {
			t.Fatalf("%s: stats diverge: serial %+v vs parallel %+v", label, ss, ps)
		}
		if mode == sta.Proximity && ss.ProximityEvals == 0 {
			t.Fatalf("%s: netlist produced no proximity evaluations — test is vacuous", label)
		}
		// Critical paths must be identical hop for hop.
		for _, po := range c.POs {
			arr, ok := serial.Latest(po)
			if !ok {
				continue
			}
			sp, err := serial.CriticalPath(po, arr.Dir)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := parallel.CriticalPath(po, arr.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(sp) != len(pp) {
				t.Fatalf("%s: PO %s path lengths %d vs %d", label, po.Name, len(sp), len(pp))
			}
			for i := range sp {
				if sp[i].Net != pp[i].Net || !sameArrival(sp[i].Arrival, pp[i].Arrival) {
					t.Fatalf("%s: PO %s path diverges at hop %d", label, po.Name, i)
				}
			}
		}
	}
}

// TestAnalyzeBatchMatchesAnalyze: a batch over one shared levelization must
// reproduce per-vector Analyze exactly, in order.
func TestAnalyzeBatchMatchesAnalyze(t *testing.T) {
	c, err := sta.SynthRandom(32, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]sta.PIEvent, 6)
	for i := range batch {
		batch[i] = sta.SynthEvents(c, int64(100+i))
	}
	p := compile(t, c)
	ctx := context.Background()
	results, err := p.AnalyzeBatch(ctx, batch, sta.Proximity, sta.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d vectors", len(results), len(batch))
	}
	for i, evs := range batch {
		ref, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, c, ref, results[i], fmt.Sprintf("vector %d", i))
	}
	// A bad vector aborts with its index and net name.
	bad := [][]sta.PIEvent{batch[0], {{Net: c.Net("n0"), Dir: waveform.Rising, Time: 0, TT: 1e-10}}}
	if _, err := p.AnalyzeBatch(ctx, bad, sta.Proximity, sta.Options{}); err == nil {
		t.Fatal("batch with an internal-net event accepted")
	}
}

// TestDuplicatePIEventRejected: two events on the same net and direction
// used to silently keep only the later-listed one; now it is an error that
// names the net.
func TestDuplicatePIEventRejected(t *testing.T) {
	c, in, _, err := sta.SynthChain(2)
	if err != nil {
		t.Fatal(err)
	}
	evs := []sta.PIEvent{
		{Net: in, Dir: waveform.Rising, Time: 0, TT: 100e-12},
		{Net: in, Dir: waveform.Rising, Time: 50e-12, TT: 200e-12},
	}
	p := compile(t, c)
	if _, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{}); err == nil {
		t.Fatal("duplicate same-direction PI event accepted")
	}
	// Opposite directions on one net remain legal.
	evs[1].Dir = waveform.Falling
	if _, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{}); err != nil {
		t.Fatalf("opposite-direction events rejected: %v", err)
	}
}

// TestAnalyzeStats sanity-checks the counters on a tiny known circuit:
// a NAND2 with coincident falling inputs is one proximity evaluation; the
// inverter behind it is a single-arc one.
func TestAnalyzeStats(t *testing.T) {
	c := sta.NewCircuit(sta.SynthLibrary(2))
	a, b := c.Input("a"), c.Input("b")
	n1, err := c.AddGate("g1", "nand2", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g2", "inv", "n2", n1); err != nil {
		t.Fatal(err)
	}
	res, err := compile(t, c).Analyze(context.Background(), []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 300e-12},
		{Net: b, Dir: waveform.Falling, Time: 10e-12, TT: 300e-12},
	}, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Levels != 2 || s.GatesEvaluated != 2 || s.Evaluations != 2 ||
		s.ProximityEvals != 1 || s.SingleArcEvals != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestLevelsSchedule: levelization depths on a known diamond.
func TestLevelsSchedule(t *testing.T) {
	c := sta.NewCircuit(sta.SynthLibrary(2))
	a, b := c.Input("a"), c.Input("b")
	x, _ := c.AddGate("g1", "inv", "x", a)
	y, _ := c.AddGate("g2", "inv", "y", b)
	if _, err := c.AddGate("g3", "nand2", "z", x, y); err != nil {
		t.Fatal(err)
	}
	levels, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || len(levels[0]) != 2 || len(levels[1]) != 1 {
		t.Fatalf("levels shape %v", shape(levels))
	}
	if levels[0][0].Name != "g1" || levels[0][1].Name != "g2" || levels[1][0].Name != "g3" {
		t.Fatalf("level order not netlist order: %v", shape(levels))
	}
}

func shape(levels [][]*sta.Gate) []int {
	s := make([]int, len(levels))
	for i, l := range levels {
		s[i] = len(l)
	}
	return s
}
