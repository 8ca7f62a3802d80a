package prox

// Extension benchmarks: experiments beyond the paper's own evaluation that
// exercise its stated future work (technology portability, closed-form
// macromodels) and the downstream application (proximity-aware STA verified
// against composed transistor-level simulation).

import (
	"context"
	"fmt"
	"testing"

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

// BenchmarkExtCascadeSTA times proximity-aware STA on a two-stage cascade
// and prints its accuracy against the composed-circuit golden simulation.
func BenchmarkExtCascadeSTA(b *testing.B) {
	proc := cells.DefaultProcess()
	geom := cells.DefaultGeometry()
	wire := 40e-15

	mkCalc := func(load float64) (*core.Calculator, waveform.Thresholds) {
		g := geom
		g.CLoad = load
		cell := cells.MustNew(cells.Nand, 2, proc, g)
		fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
		model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
		if err != nil {
			b.Fatal(err)
		}
		calc := core.NewCalculator(model)
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			b.Fatal(err)
		}
		return calc, fam.Thresholds
	}
	calc1, th := mkCalc(cells.InputCapacitance(proc, geom) + wire)
	calc2, _ := mkCalc(100e-15)
	lib := sta.NewLibrary()
	lib.Add("s1", calc1)
	lib.Add("s2", calc2)
	c := sta.NewCircuit(lib)
	a, bn, cin := c.Input("a"), c.Input("b"), c.Input("c")
	n1, err := c.AddGate("g1", "s1", "n1", a, bn)
	if err != nil {
		b.Fatal(err)
	}
	out, err := c.AddGate("g2", "s2", "out", n1, cin)
	if err != nil {
		b.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	events := []sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 400e-12},
		{Net: bn, Dir: waveform.Falling, Time: 30e-12, TT: 250e-12},
	}

	if _, loaded := printOnce.LoadOrStore("ext-cascade", true); !loaded {
		nl, err := chain.Build(proc, []chain.GateSpec{
			{Name: "g1", Kind: cells.Nand, Geom: geom, Inputs: []string{"a", "b"}, Output: "n1", ExtraLoad: wire},
			{Name: "g2", Kind: cells.Nand, Geom: geom, Inputs: []string{"n1", "c"}, Output: "out", ExtraLoad: 100e-15},
		})
		if err != nil {
			b.Fatal(err)
		}
		run, err := nl.Run([]chain.Stimulus{
			{Net: "a", Dir: waveform.Falling, TT: 400e-12, Cross: 0},
			{Net: "b", Dir: waveform.Falling, TT: 250e-12, Cross: 30e-12},
		}, th, spice.DefaultOptions(), 0)
		if err != nil {
			b.Fatal(err)
		}
		golden, err := run.CrossTime("out", waveform.Falling)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cv, err := p.Analyze(context.Background(), events, sta.Conventional, sta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pa, _ := pr.Arrival(out, waveform.Falling)
		ca, _ := cv.Arrival(out, waveform.Falling)
		fmt.Printf("ext-cascade: golden %.0fps | proximity STA %.0fps (%.1f%%) | conventional %.0fps (%.1f%%)\n",
			golden*1e12, pa.Time*1e12, (pa.Time-golden)/golden*100,
			ca.Time*1e12, (ca.Time-golden)/golden*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTechnologyPortability characterizes the NAND3 on the CGaAs
// process and reports a mini validation — the paper's stated future target.
func BenchmarkExtTechnologyPortability(b *testing.B) {
	proc := cells.CGaAsProcess()
	geom := cells.Geometry{WN: 6e-6, WP: 6e-6, L: 0.8e-6, CLoad: 60e-15}
	cell := cells.MustNew(cells.Nand, 3, proc, geom)
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.005)
	if err != nil {
		b.Fatal(err)
	}
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
	if _, loaded := printOnce.LoadOrStore("ext-cgaas", true); !loaded {
		model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
		if err != nil {
			b.Fatal(err)
		}
		calc := core.NewCalculator(model)
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			b.Fatal(err)
		}
		spec := validate.DefaultSpec()
		spec.N = 12
		cmp, err := validate.Run(calc, sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		ds := cmp.DelaySummary()
		fmt.Printf("ext-cgaas: %s Vdd=%.1fV — delay errors mean=%.2f%% std=%.2f%% [%.2f, %.2f]\n",
			proc.Name, proc.Vdd, ds.Mean, ds.StdDev, ds.Min, ds.Max)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.RunSingle(0, waveform.Falling, 300e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtNORValidation exercises the last-cause (series pull-up) path
// on a NOR3 and times its model evaluation.
func BenchmarkExtNORValidation(b *testing.B) {
	cell := cells.MustNew(cells.Nor, 3, cells.DefaultProcess(), cells.DefaultGeometry())
	fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.01)
	if err != nil {
		b.Fatal(err)
	}
	sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
	model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
	if err != nil {
		b.Fatal(err)
	}
	calc := core.NewCalculator(model)
	if err := core.CalibrateCorrection(calc, sim); err != nil {
		b.Fatal(err)
	}
	if _, loaded := printOnce.LoadOrStore("ext-nor", true); !loaded {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			spec := validate.DefaultSpec()
			spec.N = 10
			spec.Dir = dir
			cmp, err := validate.Run(calc, sim, spec)
			if err != nil {
				b.Fatal(err)
			}
			ds := cmp.DelaySummary()
			fmt.Printf("ext-nor: %v inputs (%v) delay errors mean=%.2f%% std=%.2f%% [%.2f, %.2f]\n",
				dir, model.Causation(dir), ds.Mean, ds.StdDev, ds.Min, ds.Max)
		}
	}
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 250e-12, Cross: -50e-12},
		{Pin: 2, Dir: waveform.Falling, TT: 700e-12, Cross: 40e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calc.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPairPolicy compares the paper's per-reference economy
// (2n dual tables) against the full n(n-1) matrix on identical samples.
func BenchmarkAblationPairPolicy(b *testing.B) {
	r := getBenchRig(b)
	if _, loaded := printOnce.LoadOrStore("abl-pairs", true); !loaded {
		spec := macromodel.CoarseCharSpec()
		spec.Pairs = macromodel.FullMatrix
		matrixModel, err := macromodel.CharacterizeGate(r.sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		matrixCalc := core.NewCalculator(matrixModel)
		if err := core.CalibrateCorrection(matrixCalc, r.sim); err != nil {
			b.Fatal(err)
		}
		vspec := validate.DefaultSpec()
		vspec.N = 15
		per, err := validate.Run(r.calc, r.sim, vspec)
		if err != nil {
			b.Fatal(err)
		}
		mat, err := validate.Run(matrixCalc, r.sim, vspec)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation-pairs: rise-time err std — per-ref %.2f%% vs full matrix %.2f%% (delay stds %.2f%% vs %.2f%%)\n",
			per.TTSummary().StdDev, mat.TTSummary().StdDev,
			per.DelaySummary().StdDev, mat.DelaySummary().StdDev)
	}
	events := []core.InputEvent{
		{Pin: 2, Dir: waveform.Falling, TT: 700e-12, Cross: 0},
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: -100e-12},
		{Pin: 1, Dir: waveform.Falling, TT: 900e-12, Cross: 80e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.calc.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCubicTables compares multilinear and cubic table
// interpolation (accuracy line + eval cost).
func BenchmarkAblationCubicTables(b *testing.B) {
	r := getBenchRig(b)
	cubic := &core.Calculator{Model: r.model, CubicTables: true}
	if _, loaded := printOnce.LoadOrStore("abl-cubic", true); !loaded {
		vspec := validate.DefaultSpec()
		vspec.N = 15
		lin, err := validate.Run(r.calc, r.sim, vspec)
		if err != nil {
			b.Fatal(err)
		}
		// Same model and correction; only the interpolation differs.
		cub, err := validate.Run(cubic, r.sim, vspec)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation-cubic: delay err std — linear %.2f%% vs cubic %.2f%%\n",
			lin.DelaySummary().StdDev, cub.DelaySummary().StdDev)
	}
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 250e-12, Cross: 60e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cubic.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtAnalyticBackend compares eval speed of the fitted closed-form
// backend against the interpolated tables and reports its accuracy.
func BenchmarkExtAnalyticBackend(b *testing.B) {
	r := getBenchRig(b)
	am, err := macromodel.FitGate(r.model, 4)
	if err != nil {
		b.Fatal(err)
	}
	analytic := &core.Calculator{Model: r.model, Dual: &core.AnalyticBackend{Model: am}}
	if _, loaded := printOnce.LoadOrStore("ext-analytic", true); !loaded {
		spec := validate.DefaultSpec()
		spec.N = 15
		at, err := validate.Run(analytic, r.sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		tb, err := validate.Run(r.calc, r.sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ext-analytic: delay errors — table mean=%.2f%% std=%.2f%%, analytic mean=%.2f%% std=%.2f%%\n",
			tb.DelaySummary().Mean, tb.DelaySummary().StdDev,
			at.DelaySummary().Mean, at.DelaySummary().StdDev)
	}
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 250e-12, Cross: 60e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}
