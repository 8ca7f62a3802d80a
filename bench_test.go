package prox

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus ablations of the design choices called out in DESIGN.md.
// Each benchmark times the core computation of its experiment and prints a
// one-shot compact summary of the reproduced rows (the full tables come from
// cmd/repro).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/validate"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// benchRig is the shared characterized NAND3 for all benchmarks.
type benchRig struct {
	cell  *cells.Cell
	fam   *vtc.Family
	sim   *macromodel.GateSim
	model *macromodel.GateModel
	calc  *core.Calculator
}

var (
	bOnce sync.Once
	bRig  *benchRig
	bErr  error
)

func getBenchRig(b *testing.B) *benchRig {
	b.Helper()
	bOnce.Do(func() {
		cell := cells.MustNew(cells.Nand, 3, cells.DefaultProcess(), cells.DefaultGeometry())
		fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
		if err != nil {
			bErr = err
			return
		}
		sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
		model, err := macromodel.CharacterizeGate(sim, macromodel.DefaultCharSpec())
		if err != nil {
			bErr = err
			return
		}
		calc := core.NewCalculator(model)
		if err := core.CalibrateCorrection(calc, sim); err != nil {
			bErr = err
			return
		}
		gm, err := sim.CharacterizeGlitch(0, 1, macromodel.GlitchGridSpec{
			TausFall: []float64{100e-12, 500e-12, 1e-9},
			TausRise: []float64{100e-12, 500e-12, 1e-9},
			Seps:     []float64{-1e-9, -0.5e-9, 0, 0.4e-9, 0.8e-9, 1.2e-9, 1.6e-9},
		})
		if err != nil {
			bErr = err
			return
		}
		model.Glitches = append(model.Glitches, gm)
		bRig = &benchRig{cell: cell, fam: fam, sim: sim, model: model, calc: calc}
	})
	if bErr != nil {
		b.Fatal(bErr)
	}
	return bRig
}

var printOnce sync.Map

func oncePrint(key, msg string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(msg)
	}
}

// BenchmarkFig1_2 times the golden two-input transient behind each point of
// Figure 1-2 and reports the headline proximity speedup.
func BenchmarkFig1_2(b *testing.B) {
	r := getBenchRig(b)
	measure := func(sep float64) float64 {
		res, err := r.sim.Run([]macromodel.PinStim{
			{Pin: 0, Dir: waveform.Falling, TT: 500e-12, Cross: 0},
			{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: sep},
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := res.DelayFrom(0)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	near, far := measure(0), measure(2e-9)
	oncePrint("fig1-2", fmt.Sprintf("fig1-2: NAND3 delay coincident %.0fps vs blocked %.0fps (speedup x%.2f)\n",
		near*1e12, far*1e12, far/near))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(float64(i%7-3) * 100e-12)
	}
}

// BenchmarkFig2_1 times VTC-family extraction (the 2^n-1 DC sweeps).
func BenchmarkFig2_1(b *testing.B) {
	r := getBenchRig(b)
	oncePrint("fig2-1", fmt.Sprintf("fig2-1: thresholds Vil=%.3fV (subset {%s}) Vih=%.3fV (subset {%s})\n",
		r.fam.Thresholds.Vil, vtc.SubsetName(r.fam.MinVilSubset),
		r.fam.Thresholds.Vih, vtc.SubsetName(r.fam.MaxVihSubset)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := cells.MustNew(cells.Nand, 3, cells.DefaultProcess(), cells.DefaultGeometry())
		if _, err := vtc.Extract(cell, spice.DefaultOptions(), 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_3 times the model evaluation behind each Figure 3-3 sweep
// point (dominance identification + dual-model application).
func BenchmarkFig3_3(b *testing.B) {
	r := getBenchRig(b)
	da := r.model.Single(0, waveform.Falling).DelayAt(500e-12)
	db := r.model.Single(1, waveform.Falling).DelayAt(1000e-12)
	oncePrint("fig3-3", fmt.Sprintf("fig3-3: dominance crossover for τa=500ps/τb=1000ps at s=%.0fps\n",
		(da-db)*1e12))
	seps := []float64{-400e-12, -200e-12, 0, 100e-12, 200e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := r.calc.Evaluate([]core.InputEvent{
			{Pin: 0, Dir: waveform.Falling, TT: 500e-12, Cross: 0},
			{Pin: 1, Dir: waveform.Falling, TT: 1000e-12, Cross: seps[i%len(seps)]},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_2 times the storage-complexity evaluation.
func BenchmarkFig4_2(b *testing.B) {
	c := core.StorageComplexity(3, 10)
	oncePrint("fig4-2", fmt.Sprintf("fig4-2: n=3,p=10 entries — full %.3g, matrix %.3g, per-ref %.3g\n",
		c[0].Entries, c[1].Entries, c[2].Entries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 8; n++ {
			core.StorageComplexity(n, 10)
		}
	}
}

// BenchmarkTable5_1 times one validation sample (model + golden simulation)
// and prints the Table 5-1 stats over a 40-sample sweep.
func BenchmarkTable5_1(b *testing.B) {
	r := getBenchRig(b)
	spec := validate.DefaultSpec()
	spec.N = 40
	if _, loaded := printOnce.LoadOrStore("table5-1", true); !loaded {
		cmp, err := validate.Run(r.calc, r.sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		ds, ts := cmp.DelaySummary(), cmp.TTSummary()
		fmt.Printf("table5-1 (n=40, table backend): delay mean=%.2f%% std=%.2f%% [%.2f,%.2f] | rise mean=%.2f%% std=%.2f%% [%.2f,%.2f]\n",
			ds.Mean, ds.StdDev, ds.Min, ds.Max, ts.Mean, ts.StdDev, ts.Min, ts.Max)
		fmt.Printf("table5-1 paper reference:      delay mean=1.40%% std=2.46%% [-6.94,8.54] | rise mean=-1.33%% std=4.82%% [-13.15,11.51]\n")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := validate.RunOne(r.calc, r.sim, waveform.Falling,
			[]float64{300e-12, 700e-12, 1.2e-9},
			[]float64{0, 120e-12, -200e-12})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_1 times histogram construction over validation errors.
func BenchmarkFig5_1(b *testing.B) {
	r := getBenchRig(b)
	spec := validate.DefaultSpec()
	spec.N = 12
	cmp, err := validate.Run(r.calc, r.sim, spec)
	if err != nil {
		b.Fatal(err)
	}
	errs := cmp.DelayErrors()
	h, err := stats.NewHistogram(errs, -15, 15, 12)
	if err != nil {
		b.Fatal(err)
	}
	peak, peakAt := 0, 0
	for i, c := range h.Counts {
		if c > peak {
			peak, peakAt = c, i
		}
	}
	oncePrint("fig5-1", fmt.Sprintf("fig5-1: delay-error histogram peak %d/%d samples in bin centered %.1f%%\n",
		peak, len(errs), h.BinCenter(peakAt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.NewHistogram(errs, -15, 15, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_1 times one glitch-magnitude simulation and prints the
// characterized inertial delays.
func BenchmarkFig6_1(b *testing.B) {
	r := getBenchRig(b)
	var line string
	for _, tr := range []float64{100e-12, 500e-12, 1000e-12} {
		sep, ok, err := core.InertialDelay(r.model, 0, 1, 500e-12, tr)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			line += fmt.Sprintf(" τrise=%.0fps->s_min=%.0fps", tr*1e12, sep*1e12)
		}
	}
	oncePrint("fig6-1", "fig6-1: inertial delay (τfall=500ps):"+line+"\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.sim.RunGlitch(0, 1, 500e-12, 500e-12, float64(i%5)*200e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineCollapse times the inverter-collapse baseline prediction
// and prints its accuracy against the proximity model.
func BenchmarkBaselineCollapse(b *testing.B) {
	r := getBenchRig(b)
	coll := collapse.New(r.cell, spice.DefaultOptions(), r.fam.Thresholds)
	stims := []macromodel.PinStim{
		{Pin: 0, Dir: waveform.Falling, TT: 1500e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: 150e-12},
		{Pin: 2, Dir: waveform.Falling, TT: 600e-12, Cross: -100e-12},
	}
	if _, loaded := printOnce.LoadOrStore("baseline", true); !loaded {
		run, err := r.sim.Run(stims)
		if err != nil {
			b.Fatal(err)
		}
		// Reference the model's dominant input.
		res, err := r.calc.Evaluate([]core.InputEvent{
			{Pin: 0, Dir: waveform.Falling, TT: 1500e-12, Cross: 0},
			{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: 150e-12},
			{Pin: 2, Dir: waveform.Falling, TT: 600e-12, Cross: -100e-12},
		})
		if err != nil {
			b.Fatal(err)
		}
		refIdx := res.Dominant
		actual, err := run.DelayFrom(refIdx)
		if err != nil {
			b.Fatal(err)
		}
		pred, _, err := coll.PredictDelayFrom(stims, refIdx)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("baseline: golden %.0fps | proximity %.0fps (%.1f%%) | collapse %.0fps (%.1f%%)\n",
			actual*1e12, res.Delay*1e12, (res.Delay-actual)/actual*100,
			pred*1e12, (pred-actual)/actual*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coll.Predict(stims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCorrection compares step-case accuracy with and without
// the Section-4 corrective term.
func BenchmarkAblationCorrection(b *testing.B) {
	r := getBenchRig(b)
	step := r.model.Singles[0].TauAxis[0]
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: step, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: step, Cross: 0},
		{Pin: 2, Dir: waveform.Falling, TT: step, Cross: 0},
	}
	if _, loaded := printOnce.LoadOrStore("abl-corr", true); !loaded {
		with, err := r.calc.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		noCorr := &core.Calculator{Model: r.model, DisableCorrection: true}
		without, err := noCorr.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation-correction: coincident steps — with %.0fps, without %.0fps (correction %.0fps)\n",
			with.Delay*1e12, without.Delay*1e12, with.CorrectionApplied*1e12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.calc.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackend compares the table backend against the
// direct-simulation backend on one configuration.
func BenchmarkAblationBackend(b *testing.B) {
	r := getBenchRig(b)
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 900e-12, Cross: -100e-12},
	}
	simCalc := &core.Calculator{Model: r.model, Dual: core.NewSimBackend(r.sim.Clone())}
	if _, loaded := printOnce.LoadOrStore("abl-backend", true); !loaded {
		tbl, err := r.calc.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		simr, err := simCalc.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation-backend: table %.1fps vs direct-sim %.1fps (Δ %.1f%%)\n",
			tbl.Delay*1e12, simr.Delay*1e12, (tbl.Delay-simr.Delay)/simr.Delay*100)
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.calc.Evaluate(events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-sim-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simCalc.Evaluate(events); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationThresholds compares the paper's min-Vil/max-Vih policy
// against naive Vdd/2 thresholds: the naive choice yields negative delays
// for slow inputs dominating late.
func BenchmarkAblationThresholds(b *testing.B) {
	r := getBenchRig(b)
	if _, loaded := printOnce.LoadOrStore("abl-th", true); !loaded {
		// The failure mode of Section 2: with ALL inputs falling together
		// very slowly, the relevant VTC is the all-switching curve, whose
		// Vm is well above Vdd/2 — so the output rises through Vdd/2
		// BEFORE the inputs fall through it, and the naive measurement
		// goes negative. The paper's min-Vil/max-Vih policy cannot.
		half := waveform.Thresholds{Vil: 2.4999, Vih: 2.5001, Vdd: 5}
		negNaive, negPaper, total := 0, 0, 0
		for _, tau := range []float64{5e-9, 10e-9, 20e-9} {
			stims := []macromodel.PinStim{
				{Pin: 0, Dir: waveform.Falling, TT: tau, Cross: 0},
				{Pin: 1, Dir: waveform.Falling, TT: tau, Cross: 0},
				{Pin: 2, Dir: waveform.Falling, TT: tau, Cross: 0},
			}
			res, err := r.sim.Run(stims)
			if err != nil {
				b.Fatal(err)
			}
			total++
			tinN, ok := res.PWLs[0].CrossTime(half.Level(waveform.Falling), waveform.Falling, -1)
			if ok {
				if toutN, err := half.OutputCross(res.Out, waveform.Rising); err == nil && toutN-tinN < 0 {
					negNaive++
				}
			}
			if d, err := res.DelayFrom(0); err == nil && d < 0 {
				negPaper++
			}
		}
		fmt.Printf("ablation-thresholds: all-switching slow falls — Vdd/2 policy: %d/%d negative delays; paper policy: %d/%d\n",
			negNaive, total, negPaper, total)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.fam.Thresholds.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrdering compares dominance ordering against naive
// arrival ordering around the crossover.
func BenchmarkAblationOrdering(b *testing.B) {
	r := getBenchRig(b)
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 1000e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: 50e-12},
	}
	naive := &core.Calculator{Model: r.model, NaiveOrdering: true}
	if _, loaded := printOnce.LoadOrStore("abl-ord", true); !loaded {
		dom, err := r.calc.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		nv, err := naive.Evaluate(events)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation-ordering: dominance picks %c (Δ=%.0fps), arrival order picks %c (Δ=%.0fps)\n",
			'a'+rune(dom.Dominant), dom.Delay*1e12, 'a'+rune(nv.Dominant), nv.Delay*1e12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := naive.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures the raw model-evaluation rate — the cost a
// proximity-aware STA pays per gate.
func BenchmarkEvaluate(b *testing.B) {
	r := getBenchRig(b)
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 250e-12, Cross: 60e-12},
		{Pin: 2, Dir: waveform.Falling, TT: 800e-12, Cross: -120e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.calc.Evaluate(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientNAND3 measures the simulator itself (one golden run).
func BenchmarkTransientNAND3(b *testing.B) {
	r := getBenchRig(b)
	stims := []macromodel.PinStim{
		{Pin: 0, Dir: waveform.Falling, TT: 500e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: 100e-12},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.sim.Run(stims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTAAnalyze measures proximity-aware timing of the example
// NAND-adder carry circuit.
func BenchmarkSTAAnalyze(b *testing.B) {
	r := getBenchRig(b)
	// Reuse the NAND3 model as a 3-input library gate plus a NAND2-like
	// arc set — build a small all-NAND3 tree.
	lib := sta.NewLibrary()
	lib.Add("nand3", r.calc)
	c := sta.NewCircuit(lib)
	in := make([]*sta.Net, 6)
	for i := range in {
		in[i] = c.Input(fmt.Sprintf("i%d", i))
	}
	n1, err := c.AddGate("g1", "nand3", "n1", in[0], in[1], in[2])
	if err != nil {
		b.Fatal(err)
	}
	n2, err := c.AddGate("g2", "nand3", "n2", in[3], in[4], in[5])
	if err != nil {
		b.Fatal(err)
	}
	out, err := c.AddGate("g3", "nand3", "out", n1, n2, in[0])
	if err != nil {
		b.Fatal(err)
	}
	_ = out
	events := make([]sta.PIEvent, 6)
	for i := range events {
		events[i] = sta.PIEvent{Net: in[i], Dir: waveform.Falling,
			Time: float64(i) * 30e-12, TT: 300e-12}
	}
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Analyze(context.Background(), events, sta.Proximity, sta.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// staBench lazily builds and compiles the shared ≥10k-gate synthetic
// netlist for the scaling benchmarks (no transient simulation behind the
// library, so the cost measured is purely the proximity STA engine).
var (
	staBenchOnce sync.Once
	staBenchP    *sta.Compiled
	staBenchEvs  []sta.PIEvent
	staBenchErr  error
)

func getSTABench(b *testing.B) (*sta.Compiled, []sta.PIEvent) {
	b.Helper()
	staBenchOnce.Do(func() {
		c, err := sta.SynthRandom(128, 12000, 11)
		if err == nil {
			staBenchP, err = c.Compile()
		}
		if staBenchErr = err; err == nil {
			staBenchEvs = sta.SynthEvents(c, 5)
		}
	})
	if staBenchErr != nil {
		b.Fatal(staBenchErr)
	}
	return staBenchP, staBenchEvs
}

// BenchmarkAnalyzeParallel measures the levelized parallel Analyze on a
// 12k-gate synthetic netlist across worker counts; workers=1 is the serial
// baseline the speedup is read against.
func BenchmarkAnalyzeParallel(b *testing.B) {
	p, evs := getSTABench(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Analyze(context.Background(), evs, sta.Proximity, sta.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeBatch measures the heavy-traffic shape: N independent
// stimulus vectors streamed through one shared levelization.
func BenchmarkAnalyzeBatch(b *testing.B) {
	p, _ := getSTABench(b)
	batch := make([][]sta.PIEvent, 16)
	for i := range batch {
		batch[i] = sta.SynthEvents(p.Circuit(), int64(i))
	}
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.AnalyzeBatch(context.Background(), batch, sta.Proximity, sta.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
