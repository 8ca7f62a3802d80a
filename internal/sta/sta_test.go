package sta_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// library caches characterized nand2 + inv calculators.
var (
	libOnce sync.Once
	lib     *sta.Library
	libErr  error
)

func testLibrary(t testing.TB) *sta.Library {
	t.Helper()
	libOnce.Do(func() {
		lib = sta.NewLibrary()
		for _, spec := range []struct {
			name string
			kind cells.Kind
			n    int
		}{{"nand2", cells.Nand, 2}, {"inv", cells.Inv, 1}} {
			cell := cells.MustNew(spec.kind, spec.n, cells.DefaultProcess(), cells.DefaultGeometry())
			fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
			if err != nil {
				libErr = err
				return
			}
			sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
			model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
			if err != nil {
				libErr = err
				return
			}
			calc := core.NewCalculator(model)
			if spec.n >= 2 {
				if err := core.CalibrateCorrection(calc, sim); err != nil {
					libErr = err
					return
				}
			}
			lib.Add(spec.name, calc)
		}
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return lib
}

// compile levelizes a test circuit into its analysis handle.
func compile(tb testing.TB, c *sta.Circuit) *sta.Compiled {
	tb.Helper()
	p, err := c.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestCircuitConstruction(t *testing.T) {
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	a := c.Input("a")
	b := c.Input("b")
	if c.Input("a") != a {
		t.Error("duplicate input declaration created a new net")
	}
	out, err := c.AddGate("g1", "nand2", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g2", "nand2", "n1", a, b); err == nil {
		t.Error("double-driven net accepted")
	}
	if _, err := c.AddGate("g3", "nand9", "n2", a, b); err == nil {
		t.Error("unknown gate type accepted")
	}
	if _, err := c.AddGate("g4", "nand2", "n3", a); err == nil {
		t.Error("wrong arity accepted")
	}
	if c.Net("n1") != out {
		t.Error("net lookup broken")
	}
}

func TestInverterChainDelayAccumulates(t *testing.T) {
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	in := c.Input("in")
	n1, err := c.AddGate("i1", "inv", "n1", in)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.AddGate("i2", "inv", "n2", n1)
	if err != nil {
		t.Fatal(err)
	}
	ev := []sta.PIEvent{{Net: in, Dir: waveform.Rising, Time: 0, TT: 200e-12}}
	res, err := compile(t, c).Analyze(context.Background(), ev, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a1, ok1 := res.Arrival(n1, waveform.Falling)
	a2, ok2 := res.Arrival(n2, waveform.Rising)
	if !ok1 || !ok2 {
		t.Fatal("missing arrivals along the chain")
	}
	if !(a2.Time > a1.Time && a1.Time > 0) {
		t.Errorf("arrivals not ordered: %.1fps then %.1fps", a1.Time*1e12, a2.Time*1e12)
	}
	// Path trace reaches the primary input.
	path, err := res.CriticalPath(n2, waveform.Rising)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0].Net != in {
		t.Errorf("path length %d, first net %s", len(path), path[0].Net.Name)
	}
}

func TestProximityVsConventionalOnCoincidentInputs(t *testing.T) {
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	a := c.Input("a")
	b := c.Input("b")
	out, err := c.AddGate("g", "nand2", "out", a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, c)
	ctx := context.Background()
	ev := []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 400e-12},
		{Net: b, Dir: waveform.Falling, Time: 20e-12, TT: 400e-12},
	}
	conv, err := p.Analyze(ctx, ev, sta.Conventional, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prox, err := p.Analyze(ctx, ev, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := conv.Arrival(out, waveform.Rising)
	pa, _ := prox.Arrival(out, waveform.Rising)
	// Falling NAND inputs conduct in parallel: the true (proximity) output
	// crossing is EARLIER than the conventional latest-arc estimate.
	if !(pa.Time < ca.Time) {
		t.Errorf("parallel pull-up should beat conventional: prox %.1fps vs conv %.1fps",
			pa.Time*1e12, ca.Time*1e12)
	}

	// Rising NAND inputs complete a series stack: the true crossing is
	// LATER than the conventional estimate (conventional is optimistic —
	// the dangerous direction).
	ev2 := []sta.PIEvent{
		{Net: a, Dir: waveform.Rising, Time: 0, TT: 400e-12},
		{Net: b, Dir: waveform.Rising, Time: 20e-12, TT: 400e-12},
	}
	conv2, err := p.Analyze(ctx, ev2, sta.Conventional, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prox2, err := p.Analyze(ctx, ev2, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca2, _ := conv2.Arrival(out, waveform.Falling)
	pa2, _ := prox2.Arrival(out, waveform.Falling)
	if !(pa2.Time > ca2.Time) {
		t.Errorf("series stack should be slower than conventional: prox %.1fps vs conv %.1fps",
			pa2.Time*1e12, ca2.Time*1e12)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	a := c.Input("a")
	n1, _ := c.AddGate("g", "inv", "n1", a)
	p := compile(t, c)
	if _, err := p.Analyze(context.Background(), []sta.PIEvent{{Net: n1, Dir: waveform.Rising, Time: 0, TT: 1e-10}}, sta.Proximity, sta.Options{}); err == nil {
		t.Error("event on internal net accepted")
	}
	if _, err := p.Analyze(context.Background(), []sta.PIEvent{{Net: a, Dir: waveform.Rising, Time: 0, TT: 0}}, sta.Proximity, sta.Options{}); err == nil {
		t.Error("zero transition time accepted")
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	l := testLibrary(t)
	// Two-gate loop via a forward net reference: l1 takes fwd as an input,
	// l2 drives fwd from l1's output.
	c2 := sta.NewCircuit(l)
	x, err := c2.AddGate("l1", "nand2", "x", c2.Input("pi"), c2.ForwardNet("fwd"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddGate("l2", "inv", "fwd", x); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compile(); err == nil {
		t.Error("combinational loop not detected")
	}
}

func TestSlacks(t *testing.T) {
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	a := c.Input("a")
	out, err := c.AddGate("g", "inv", "out", a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out)
	res, err := compile(t, c).Analyze(context.Background(), []sta.PIEvent{
		{Net: a, Dir: waveform.Rising, Time: 0, TT: 200e-12},
	}, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := res.Arrival(out, waveform.Falling)
	req := arr.Time + 100e-12
	ws, at, warr, ok := res.WorstSlack([]*sta.Net{out, a}, req)
	if !ok {
		t.Fatal("no worst slack")
	}
	// The latest arrival is out's falling edge, so it bounds the slack.
	if at != out || warr.Dir != waveform.Falling || math.Abs(ws-100e-12) > 1e-18 {
		t.Errorf("worst slack %g at %v (%v)", ws, at.Name, warr.Dir)
	}
	if _, _, _, ok := res.WorstSlack(nil, req); ok {
		t.Error("worst slack over no nets reported ok")
	}
}

func TestLatestAndModeString(t *testing.T) {
	if sta.Proximity.String() != "proximity" || sta.Conventional.String() != "conventional" {
		t.Error("mode strings changed")
	}
	l := testLibrary(t)
	c := sta.NewCircuit(l)
	a := c.Input("a")
	out, _ := c.AddGate("g", "inv", "out", a)
	res, err := compile(t, c).Analyze(context.Background(), []sta.PIEvent{{Net: a, Dir: waveform.Rising, Time: 10e-12, TT: 100e-12}}, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := res.Latest(out)
	if !ok || math.IsNaN(arr.Time) {
		t.Error("Latest missing arrival")
	}
	if _, ok := res.Arrival(out, waveform.Rising); ok {
		t.Error("phantom rising arrival on inverter output for rising input")
	}
}

// TestLatestWorstSlackAllocFree: the per-PO report helpers run per output
// per request in the service's response builder — they must not allocate.
func TestLatestWorstSlackAllocFree(t *testing.T) {
	if sta.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := sta.SynthRandom(8, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile(t, c).Analyze(context.Background(), sta.SynthEvents(c, 1), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) == 0 {
		t.Fatal("no primary outputs to report on")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, po := range c.POs {
			res.Latest(po)
		}
	}); allocs != 0 {
		t.Errorf("Latest allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		res.WorstSlack(c.POs, 2e-9)
	}); allocs != 0 {
		t.Errorf("WorstSlack allocates %.1f objects per run", allocs)
	}
}
