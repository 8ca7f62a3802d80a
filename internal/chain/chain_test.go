package chain_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

func TestBuildValidation(t *testing.T) {
	proc := cells.DefaultProcess()
	if _, err := chain.Build(proc, nil); err == nil {
		t.Error("empty chain accepted")
	}
	geom := cells.DefaultGeometry()
	dup := []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n"},
		{Name: "g2", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n"},
	}
	if _, err := chain.Build(proc, dup); err == nil {
		t.Error("doubly driven net accepted")
	}
	anon := []chain.GateSpec{{Kind: cells.Nand, Geom: geom, Inputs: []string{"a"}, Output: ""}}
	if _, err := chain.Build(proc, anon); err == nil {
		t.Error("anonymous gate accepted")
	}
}

func TestPrimaryInputDetection(t *testing.T) {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	nl, err := chain.Build(proc, []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n1"},
		{Name: "g2", Kind: cells.Nand, Geom: geom, Inputs: []string{"n1", "c"}, Output: "out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range []string{"a", "b", "c"} {
		if _, ok := nl.PrimaryInputs[pi]; !ok {
			t.Errorf("%s not detected as primary input", pi)
		}
	}
	if _, ok := nl.PrimaryInputs["n1"]; ok {
		t.Error("internal net n1 marked primary")
	}
	// 2 gates x 4 transistors... NAND2 has 4 transistors each.
	if got := len(nl.Ckt.MOSFETs); got != 8 {
		t.Errorf("composed circuit has %d transistors, want 8", got)
	}
}

// TestSingleGateChainMatchesCellHarness: a one-gate chain with the same
// output load reproduces the standalone cell measurement.
func TestSingleGateChainMatchesCellHarness(t *testing.T) {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()

	cell := cells.MustNew(cells.Nand, 2, proc, geom)
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	th := fam.Thresholds
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), th)
	wantDelay, wantTT, err := sim.RunPair(0, 1, waveform.Falling, 400e-12, 150e-12, 80e-12)
	if err != nil {
		t.Fatal(err)
	}

	nl, err := chain.Build(proc, []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "out",
			ExtraLoad: geom.CLoad},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nl.Run([]chain.Stimulus{
		{Net: "a", Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Net: "b", Dir: waveform.Falling, TT: 150e-12, Cross: 80e-12},
	}, th, spice.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := res.CrossTime("out", waveform.Rising)
	if err != nil {
		t.Fatal(err)
	}
	gotDelay := cross // input a crossed at t=0 in the unshifted frame
	if rel := math.Abs(gotDelay-wantDelay) / wantDelay; rel > 0.02 {
		t.Errorf("chain delay %.1fps vs cell harness %.1fps (%.1f%%)",
			gotDelay*1e12, wantDelay*1e12, rel*100)
	}
	gotTT, err := res.TransitionTime("out", waveform.Rising)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(gotTT-wantTT) / wantTT; rel > 0.03 {
		t.Errorf("chain TT %.1fps vs cell harness %.1fps", gotTT*1e12, wantTT*1e12)
	}
}

// TestFanoutLoadingSlowsDriver: a gate driving two fanout gates switches
// more slowly than one driving a single gate — the composed circuit carries
// real inter-stage loading.
func TestFanoutLoadingSlowsDriver(t *testing.T) {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	crossWith := func(fanout int) float64 {
		gates := []chain.GateSpec{
			{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n1"},
		}
		for i := 0; i < fanout; i++ {
			gates = append(gates, chain.GateSpec{
				Name: fmt.Sprintf("l%d", i), Kind: cells.Nand, Geom: geom,
				Inputs: []string{"n1", "en"}, Output: fmt.Sprintf("o%d", i), ExtraLoad: 50e-15,
			})
		}
		nl, err := chain.Build(proc, gates)
		if err != nil {
			t.Fatal(err)
		}
		th := waveform.Thresholds{Vil: 1.5, Vih: 3.5, Vdd: 5}
		res, err := nl.Run([]chain.Stimulus{
			{Net: "a", Dir: waveform.Falling, TT: 300e-12, Cross: 0},
		}, th, spice.DefaultOptions(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := res.CrossTime("n1", waveform.Rising)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	one := crossWith(1)
	three := crossWith(3)
	if !(three > one) {
		t.Errorf("fanout-3 crossing (%.1fps) should be later than fanout-1 (%.1fps)",
			three*1e12, one*1e12)
	}
}

// TestRunValidation covers chain.Run error paths.
func TestRunValidation(t *testing.T) {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	nl, err := chain.Build(proc, []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := waveform.Thresholds{Vil: 1.5, Vih: 3.5, Vdd: 5}
	if _, err := nl.Run([]chain.Stimulus{{Net: "out", Dir: waveform.Falling, TT: 1e-10}}, th, spice.DefaultOptions(), 0); err == nil {
		t.Error("stimulating an internal net accepted")
	}
	if _, err := nl.Run([]chain.Stimulus{{Net: "a", Dir: waveform.Falling, TT: 0}}, th, spice.DefaultOptions(), 0); err == nil {
		t.Error("zero transition time accepted")
	}
	bad := waveform.Thresholds{Vil: 4, Vih: 1, Vdd: 5}
	if _, err := nl.Run([]chain.Stimulus{{Net: "a", Dir: waveform.Falling, TT: 1e-10}}, bad, spice.DefaultOptions(), 0); err == nil {
		t.Error("invalid thresholds accepted")
	}
	res, err := nl.Run([]chain.Stimulus{{Net: "a", Dir: waveform.Falling, TT: 3e-10}}, th, spice.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Trace("nope"); err == nil {
		t.Error("unknown net accepted by Trace")
	}
}

// TestCascadeSTAVsGolden is the end-to-end experiment: a two-stage NAND
// cascade with near-coincident primary-input transitions, timed by the
// proximity-aware STA against the full transistor-level simulation of the
// composed circuit. The proximity mode should land near the golden output
// crossing; the conventional single-switching-input mode misses the
// first-stage proximity speedup.
func TestCascadeSTAVsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cascade experiment in -short mode")
	}
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	wire := 40e-15

	// Composed circuit: g1 = NAND2(a,b) -> n1; g2 = NAND2(n1,c) -> out.
	nl, err := chain.Build(proc, []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n1", ExtraLoad: wire},
		{Name: "g2", Kind: cells.Nand, Geom: geom, Inputs: []string{"n1", "c"}, Output: "out", ExtraLoad: 100e-15},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Library models: stage-1 cell loaded by g2's pin cap + wire; stage-2
	// cell by its output load.
	mkCalc := func(load float64) (*core.Calculator, waveform.Thresholds) {
		g := geom
		g.CLoad = load
		cell := cells.MustNew(cells.Nand, 2, proc, g)
		fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
		if err != nil {
			t.Fatal(err)
		}
		sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
		model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
		if err != nil {
			t.Fatal(err)
		}
		calc := core.NewCalculator(model)
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			t.Fatal(err)
		}
		return calc, fam.Thresholds
	}
	calc1, th := mkCalc(cells.InputCapacitance(proc, geom) + wire)
	calc2, _ := mkCalc(100e-15)

	lib := sta.NewLibrary()
	lib.Add("nand2_stage1", calc1)
	lib.Add("nand2_stage2", calc2)
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	b := c.Input("b")
	cin := c.Input("c")
	n1, err := c.AddGate("g1", "nand2_stage1", "n1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.AddGate("g2", "nand2_stage2", "out", n1, cin)
	if err != nil {
		t.Fatal(err)
	}

	// Stimulus: a and b fall 30 ps apart (strong proximity at g1); c stays
	// non-controlling high so g2 responds to n1 alone.
	const ttA, ttB = 400e-12, 250e-12
	const sep = 30e-12
	events := []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: ttA},
		{Net: b, Dir: waveform.Falling, Time: sep, TT: ttB},
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	proxRes, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	convRes, err := p.Analyze(context.Background(), events, sta.Conventional, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proxArr, ok := proxRes.Arrival(out, waveform.Falling)
	if !ok {
		t.Fatal("no proximity arrival at out")
	}
	convArr, ok := convRes.Arrival(out, waveform.Falling)
	if !ok {
		t.Fatal("no conventional arrival at out")
	}

	// Golden composed simulation.
	run, err := nl.Run([]chain.Stimulus{
		{Net: "a", Dir: waveform.Falling, TT: ttA, Cross: 0},
		{Net: "b", Dir: waveform.Falling, TT: ttB, Cross: sep},
	}, th, spice.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := run.CrossTime("out", waveform.Falling)
	if err != nil {
		t.Fatal(err)
	}

	proxErr := math.Abs(proxArr.Time-golden) / golden
	convErr := math.Abs(convArr.Time-golden) / golden
	t.Logf("golden %.0fps | proximity STA %.0fps (%.1f%%) | conventional STA %.0fps (%.1f%%)",
		golden*1e12, proxArr.Time*1e12, proxErr*100, convArr.Time*1e12, convErr*100)
	if proxErr > 0.15 {
		t.Errorf("proximity STA off by %.1f%% from composed simulation", proxErr*100)
	}
	if convErr < proxErr {
		t.Logf("note: conventional STA happened to be closer on this configuration")
	}
}
