package main

import (
	"context"
	"fmt"

	"repro/internal/cells"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/validate"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// extCascade runs the end-to-end multi-stage experiment: a two-stage NAND
// cascade timed by the proximity-aware STA against the composed
// transistor-level simulation (not in the paper — the downstream application
// its introduction motivates).
func (r *rig) extCascade() error {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	wire := 40e-15

	nl, err := chain.Build(proc, []chain.GateSpec{
		{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n1", ExtraLoad: wire},
		{Name: "g2", Kind: cells.Nand, Geom: geom, Inputs: []string{"n1", "c"}, Output: "out", ExtraLoad: 100e-15},
	})
	if err != nil {
		return err
	}

	mkCalc := func(load float64) (*core.Calculator, waveform.Thresholds, error) {
		g := geom
		g.CLoad = load
		cell, err := cells.New(cells.Nand, 2, proc, g)
		if err != nil {
			return nil, waveform.Thresholds{}, err
		}
		fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
		if err != nil {
			return nil, waveform.Thresholds{}, err
		}
		sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
		spec := macromodel.DefaultCharSpec()
		if r.fast {
			spec = macromodel.CoarseCharSpec()
		}
		model, err := macromodel.CharacterizeGate(sim, spec)
		if err != nil {
			return nil, waveform.Thresholds{}, err
		}
		calc := core.NewCalculator(model)
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			return nil, waveform.Thresholds{}, err
		}
		return calc, fam.Thresholds, nil
	}
	calc1, th, err := mkCalc(cells.InputCapacitance(proc, geom) + wire)
	if err != nil {
		return err
	}
	calc2, _, err := mkCalc(100e-15)
	if err != nil {
		return err
	}

	lib := sta.NewLibrary()
	lib.Add("s1", calc1)
	lib.Add("s2", calc2)
	c := sta.NewCircuit(lib)
	a, b, cin := c.Input("a"), c.Input("b"), c.Input("c")
	n1, err := c.AddGate("g1", "s1", "n1", a, b)
	if err != nil {
		return err
	}
	out, err := c.AddGate("g2", "s2", "out", n1, cin)
	if err != nil {
		return err
	}
	p, err := c.Compile()
	if err != nil {
		return err
	}

	fmt.Printf("Two-stage NAND cascade, inputs a,b falling in close proximity; golden =\n")
	fmt.Printf("composed transistor-level simulation of the whole cascade.\n\n")
	fmt.Printf("%8s %8s %10s %16s %16s %16s\n",
		"τa (ps)", "τb (ps)", "s_ab (ps)", "golden (ps)", "prox STA (ps)", "conv STA (ps)")
	for _, cfg := range [][3]float64{
		{400e-12, 250e-12, 30e-12},
		{300e-12, 300e-12, 0},
		{800e-12, 150e-12, 100e-12},
		{500e-12, 500e-12, -60e-12},
	} {
		ttA, ttB, sep := cfg[0], cfg[1], cfg[2]
		events := []sta.PIEvent{
			{Net: a, Dir: waveform.Falling, Time: 0, TT: ttA},
			{Net: b, Dir: waveform.Falling, Time: sep, TT: ttB},
		}
		proxRes, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{})
		if err != nil {
			return err
		}
		convRes, err := p.Analyze(context.Background(), events, sta.Conventional, sta.Options{})
		if err != nil {
			return err
		}
		pa, _ := proxRes.Arrival(out, waveform.Falling)
		ca, _ := convRes.Arrival(out, waveform.Falling)

		run, err := nl.Run([]chain.Stimulus{
			{Net: "a", Dir: waveform.Falling, TT: ttA, Cross: 0},
			{Net: "b", Dir: waveform.Falling, TT: ttB, Cross: sep},
		}, th, spice.DefaultOptions(), 0)
		if err != nil {
			return err
		}
		golden, err := run.CrossTime("out", waveform.Falling)
		if err != nil {
			return err
		}
		fmt.Printf("%8.0f %8.0f %10.0f %16.1f %9.1f (%4.1f%%) %9.1f (%4.1f%%)\n",
			ps(ttA), ps(ttB), ps(sep), ps(golden),
			ps(pa.Time), (pa.Time-golden)/golden*100,
			ps(ca.Time), (ca.Time-golden)/golden*100)
	}
	return nil
}

// extTechnology re-runs a mini Table 5-1 on the CGaAs-flavored process —
// the paper's stated future target — demonstrating the method is not tied
// to the CMOS deck.
func (r *rig) extTechnology(n int) error {
	proc := cells.CGaAsProcess()
	geom := cells.Geometry{WN: 6e-6, WP: 6e-6, L: 0.8e-6, CLoad: 60e-15}
	cell, err := cells.New(cells.Nand, 3, proc, geom)
	if err != nil {
		return err
	}
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.005)
	if err != nil {
		return err
	}
	fmt.Printf("Process %s: Vdd=%.1fV, extracted thresholds Vil=%.3f Vih=%.3f\n",
		proc.Name, proc.Vdd, fam.Thresholds.Vil, fam.Thresholds.Vih)
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
	spec := macromodel.CoarseCharSpec()
	if !r.fast {
		spec = macromodel.DefaultCharSpec()
	}
	model, err := macromodel.CharacterizeGate(sim, spec)
	if err != nil {
		return err
	}
	calc := core.NewCalculator(model)
	if err := core.CalibrateCorrection(calc, sim); err != nil {
		return err
	}
	vspec := validate.DefaultSpec()
	vspec.N = n
	cmp, err := validate.Run(calc, sim, vspec)
	if err != nil {
		return err
	}
	ds, ts := cmp.DelaySummary(), cmp.TTSummary()
	fmt.Printf("\n%-12s %10s %10s\n", "Quantity", "Delay", "Rise time")
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "Mean error", ds.Mean, ts.Mean)
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "Std-dev", ds.StdDev, ts.StdDev)
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "Max error", ds.Max, ts.Max)
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "Min error", ds.Min, ts.Min)
	return nil
}

// extNOR validates the model on a NOR3 in both directions, exercising the
// last-cause (series pull-up) path that the paper only sketches.
func (r *rig) extNOR(n int) error {
	cell, err := cells.New(cells.Nor, 3, cells.DefaultProcess(), cells.DefaultGeometry())
	if err != nil {
		return err
	}
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.01)
	if err != nil {
		return err
	}
	fmt.Printf("NOR3 thresholds: Vil=%.3f Vih=%.3f\n", fam.Thresholds.Vil, fam.Thresholds.Vih)
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
	spec := macromodel.CoarseCharSpec()
	if !r.fast {
		spec = macromodel.DefaultCharSpec()
	}
	model, err := macromodel.CharacterizeGate(sim, spec)
	if err != nil {
		return err
	}
	calc := core.NewCalculator(model)
	if err := core.CalibrateCorrection(calc, sim); err != nil {
		return err
	}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		vspec := validate.DefaultSpec()
		vspec.N = n
		vspec.Dir = dir
		cmp, err := validate.Run(calc, sim, vspec)
		if err != nil {
			return fmt.Errorf("NOR %v: %w", dir, err)
		}
		ds, ts := cmp.DelaySummary(), cmp.TTSummary()
		caus := model.Causation(dir)
		fmt.Printf("\ninputs %v (%v):\n", dir, caus)
		fmt.Printf("  delay errors: mean=%.2f%% std=%.2f%% [%.2f, %.2f]\n", ds.Mean, ds.StdDev, ds.Min, ds.Max)
		fmt.Printf("  tt errors:    mean=%.2f%% std=%.2f%% [%.2f, %.2f]\n", ts.Mean, ts.StdDev, ts.Min, ts.Max)
	}
	return nil
}

// extAnalytic compares the fitted closed-form backend against tables.
func (r *rig) extAnalytic(n int) error {
	vspec := validate.DefaultSpec()
	vspec.N = n

	cmp, err := validate.Run(r.calc, r.sim, vspec)
	if err != nil {
		return err
	}
	ds := cmp.DelaySummary()
	fmt.Printf("%-26s delay errors: mean=%6.2f%% std=%5.2f%% [%6.2f, %6.2f]\n",
		"table backend", ds.Mean, ds.StdDev, ds.Min, ds.Max)

	tableEntries := 0
	for _, d := range r.model.Duals {
		tableEntries += d.DelayRatio.Len() + d.TTRatio.Len()
	}
	for _, deg := range []int{4, 7} {
		am, err := macromodel.FitGate(r.model, deg)
		if err != nil {
			return err
		}
		coeffs := 0
		for _, a := range am.Duals {
			coeffs += a.Delay.NumCoeffs() + a.TT.NumCoeffs()
		}
		cmp, err := validate.Run(&core.Calculator{Model: r.model, Dual: &core.AnalyticBackend{Model: am}}, r.sim, vspec)
		if err != nil {
			return err
		}
		ds := cmp.DelaySummary()
		fmt.Printf("%-26s delay errors: mean=%6.2f%% std=%5.2f%% [%6.2f, %6.2f]  (%d->%d entries, x%.0f smaller, fit RMS %.3f)\n",
			fmt.Sprintf("analytic degree %d", deg), ds.Mean, ds.StdDev, ds.Min, ds.Max,
			tableEntries, coeffs, float64(tableEntries)/float64(coeffs), am.Duals[0].DelayRMS)
	}
	fmt.Printf("\n(Closed forms exist, as the paper conjectures, but global polynomials\n saturate near 5%% error: the surfaces have kinks at the proximity-window\n and dominance boundaries that resist low-degree fits.)\n")
	return nil
}
