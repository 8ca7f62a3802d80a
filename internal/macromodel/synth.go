package macromodel

import (
	"math"

	"repro/internal/table"
	"repro/internal/waveform"
)

// SynthModel builds a fully analytic GateModel: smooth, deterministic
// single- and dual-input tables with no transient simulation behind them.
// It is not characterized from a cell — its purpose is fast large-scale
// tests and benchmarks of the layers above the macromodel (the proximity
// calculator and the STA engine), where only the qualitative shape of the
// model matters: monotone single-input delays, first-cause speedups that
// fade with separation, last-cause slowdowns that peak near coincidence.
//
// kind selects the causation mapping ("inv", "nand", "nor"); numInputs is
// the pin count. Dual tables follow the paper's per-reference policy (one
// per reference pin), and a small step correction is installed so the
// Section-4 corrective path is exercised too.
func SynthModel(kind string, numInputs int) *GateModel {
	m := &GateModel{
		Kind:      kind,
		NumInputs: numInputs,
		Th:        waveform.Thresholds{Vil: 1.35, Vih: 3.65, Vdd: 5},
		Load:      100e-15,
	}
	taus := table.LogSpace(50e-12, 2e-9, 7)
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		for pin := 0; pin < numInputs; pin++ {
			m.Singles = append(m.Singles, synthSingle(pin, dir, taus))
		}
	}
	if numInputs < 2 {
		return m
	}
	x1 := table.LogSpace(0.1, 12, 6)
	x2 := table.LogSpace(0.1, 12, 6)
	x3 := []float64{-5, -3, -2, -1.2, -0.7, -0.3, 0, 0.3, 0.7, 1.2, 2, 3.5, 5}
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		caus := CausationFor(kind, dir)
		for ref := 0; ref < numInputs; ref++ {
			other := (ref + 1) % numInputs
			dG := table.MustNew(x1, x2, x3)
			tG := table.MustNew(x1, x2, x3)
			bias := 0.03 * float64(ref) // mild per-arc asymmetry
			fill := func(g *table.Grid, f func(c Causation, x1, x2, x3, bias float64) float64) {
				_ = g.Fill(func(x1, x2, x3 float64) (float64, error) {
					return f(caus, x1, x2, x3, bias), nil
				})
			}
			fill(dG, synthDelayRatio)
			fill(tG, synthTTRatio)
			m.Duals = append(m.Duals, &DualInputModel{
				RefPin: ref, OtherPin: other, Dir: dir,
				DelayRatio: dG, TTRatio: tG,
			})
		}
		m.SetCorrection(dir, Correction{Delay: 4e-12, OutTT: 2.5e-12})
	}
	// Glitch models follow the same per-reference policy as the duals: one
	// ordered opposite-edge pair per fall pin, (fall=ref, rise=(ref+1)%n).
	// For two-input gates that covers every ordered pair; for wider gates
	// uncharacterized pairs propagate untouched, like a real library with
	// partial glitch characterization.
	negative := kind != "nor"
	for ref := 0; ref < numInputs; ref++ {
		m.Glitches = append(m.Glitches, synthGlitch(ref, (ref+1)%numInputs, negative, m.Th))
	}
	return m
}

// synthGlitch fabricates one Section-6 extreme-voltage grid with the
// qualitative shape the paper measures: a sigmoid in the output pulse width
// that sweeps the extreme output voltage from "no excursion" (runt pulse
// fully absorbed) to "full swing" (transition completes), with the boundary
// shifting later for slower input transitions. The width is oriented by
// polarity — s = fall − rise for a negative-going dip, −s for a
// positive-going bump, matching the physics CharacterizeGlitch would
// measure: a NAND completes when the falling input comes much later, a NOR
// when it comes much earlier. The sigmoid's midpoint stays well inside the
// tabulated s range for every (τ_fall, τ_rise) node, so MinSeparation
// always brackets a genuine boundary.
func synthGlitch(fallPin, risePin int, negative bool, th waveform.Thresholds) *GlitchModel {
	tausF := table.LogSpace(50e-12, 2e-9, 4)
	tausR := table.LogSpace(50e-12, 2e-9, 4)
	seps := table.LinSpace(-1.5e-9, 1.5e-9, 13)
	g := table.MustNew(tausF, tausR, seps)
	_ = g.Fill(func(tf, tr, s float64) (float64, error) {
		width := s
		if !negative {
			width = -s
		}
		w0 := 60e-12 + 0.15*tr + 0.1*tf + 20e-12*float64(fallPin)
		w := 40e-12 + 0.08*tr
		// depth in (0, 1): 0 = output never leaves its rail, 1 = full swing.
		depth := 1 / (1 + math.Exp(-(width-w0)/w))
		if negative {
			return th.Vdd * (1 - depth), nil // dip toward ground
		}
		return th.Vdd * depth, nil // bump toward Vdd
	})
	return &GlitchModel{FallPin: fallPin, RisePin: risePin, NegativeGoing: negative, Extreme: g}
}

// synthSingle fabricates one monotone D(1)/T(1) arc: delay and output
// transition time grow affinely with the input transition time, with a
// small per-pin offset so arcs are distinguishable.
func synthSingle(pin int, dir waveform.Direction, taus []float64) *SingleInputModel {
	d0 := 80e-12 + 6e-12*float64(pin)
	slope := 0.32
	if dir == waveform.Falling {
		d0 = 72e-12 + 6e-12*float64(pin)
		slope = 0.28
	}
	s := &SingleInputModel{Pin: pin, Dir: dir, TauAxis: append([]float64(nil), taus...)}
	for _, tau := range taus {
		s.Delay = append(s.Delay, d0+slope*tau)
		s.OutTT = append(s.OutTT, 55e-12+0.45*tau)
		s.NormLoad = append(s.NormLoad, 100e-15/(2e-4*5*tau))
	}
	return s
}

// synthDelayRatio shapes D(2)/D(1) over the normalized coordinates: for
// first-cause (parallel conduction) a second input speeds the output up,
// most when it arrives early (x3 << 0), fading as it approaches the window
// edge; for last-cause (series completion) an earlier input slows the
// output, most near coincidence.
func synthDelayRatio(caus Causation, x1, x2, x3, bias float64) float64 {
	shape := 1 + 0.04*math.Tanh(x1-x2) + bias
	if caus == FirstCause {
		return 1 - 0.22*shape/(1+math.Exp(2*x3))
	}
	return 1 + 0.30*shape*math.Exp(-x3*x3/2)
}

// synthTTRatio is the transition-time analogue with smaller amplitude.
func synthTTRatio(caus Causation, x1, x2, x3, bias float64) float64 {
	shape := 1 + 0.03*math.Tanh(x2-x1) + bias
	if caus == FirstCause {
		return 1 - 0.12*shape/(1+math.Exp(2*x3))
	}
	return 1 + 0.18*shape*math.Exp(-x3*x3/2)
}
