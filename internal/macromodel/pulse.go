package macromodel

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/spice"
	"repro/internal/table"
	"repro/internal/waveform"
)

// PulseModel is the same-pin companion to GlitchModel: the paper's Section 6
// notes that "for a NAND gate, we can have a rising glitch at the output
// only when the same input first falls and then rises" and suggests a
// separate macromodel for the extreme voltage of that case. PulseModel
// tables the extreme OUTPUT voltage reached when one pin receives a pulse
// (an edge followed by the opposite edge), as a function of the two edge
// transition times and the pulse width.
//
// For a NAND pin pulsed low (fall then rise) the output pulses high and the
// extreme is the maximum output voltage, compared against Vih; the smallest
// width whose extreme passes the threshold is the gate's minimum
// transmittable pulse width — its inertial delay for pulses.
type PulseModel struct {
	Pin int `json:"pin"`
	// FirstDir is the leading edge direction of the input pulse.
	FirstDir waveform.Direction `json:"firstDir"`
	// PositiveGoing records the output-glitch polarity: true when the
	// output pulses toward Vdd (extreme = maximum voltage, threshold Vih).
	PositiveGoing bool `json:"positiveGoing"`
	// Extreme tables the extreme output voltage over
	// (τ_first, τ_second, width); width is measured between the two edges'
	// measurement-level crossings.
	Extreme *table.Grid `json:"extreme"`
}

// PulseGridSpec sizes the pulse characterization sweep.
type PulseGridSpec struct {
	TausFirst  []float64
	TausSecond []float64
	Widths     []float64
	Workers    int
}

// DefaultPulseGrid spans the inertial-delay regime of the default gate.
func DefaultPulseGrid() PulseGridSpec {
	return PulseGridSpec{
		TausFirst:  table.LogSpace(50e-12, 1.5e-9, 4),
		TausSecond: table.LogSpace(50e-12, 1.5e-9, 4),
		Widths:     table.LinSpace(50e-12, 2.5e-9, 21),
	}
}

// RunPulse applies an edge pair to one pin (firstDir at its measurement
// level at t=0, the opposite edge width later) and returns the extreme
// output voltage. All other pins stay non-controlling.
func (g *GateSim) RunPulse(pin int, firstDir waveform.Direction, ttFirst, ttSecond, width float64) (extreme float64, err error) {
	if width <= 0 {
		return 0, fmt.Errorf("macromodel: pulse width must be positive")
	}
	if g.Cell.Kind == cells.Complex {
		return 0, fmt.Errorf("macromodel: pulse characterization supports NAND/NOR/INV cells only")
	}
	vdd := g.Th.Vdd
	// Build the compound waveform by hand: first edge crossing at 0,
	// second edge (opposite direction) crossing at width.
	firstStart := -ttFirst * g.crossFrac(firstDir)
	secondDir := firstDir.Opposite()
	secondStart := width - ttSecond*g.crossFrac(secondDir)
	// The second ramp must start after the first ends; narrower pulses are
	// clamped to edge-to-edge adjacency (the physical limit of a full-swing
	// PWL pulse).
	minSecond := firstStart + ttFirst
	if secondStart < minSecond {
		secondStart = minSecond
	}
	const margin = 0.3e-9
	shift := margin - firstStart

	lo, hi := 0.0, vdd
	if firstDir == waveform.Falling {
		lo, hi = vdd, 0
	}
	firstEnd := firstStart + ttFirst
	pts := []waveform.Point{
		{T: firstStart + shift, V: lo},
		{T: firstEnd + shift, V: hi},
	}
	// A flat top exists only when the edges do not abut.
	if secondStart > firstEnd+1e-15 {
		pts = append(pts, waveform.Point{T: secondStart + shift, V: hi})
	} else {
		secondStart = firstEnd
	}
	pts = append(pts, waveform.Point{T: secondStart + shift + ttSecond, V: lo})
	w := waveform.MustPWL(pts...)

	g.Cell.HoldAllNonControlling()
	g.Cell.DrivePin(pin, w)
	eng, err := g.Cell.Engine(g.Opt)
	if err != nil {
		return 0, err
	}
	settle := g.Settle
	if settle <= 0 {
		settle = 4e-9
	}
	res, err := eng.Transient(spice.TranSpec{
		Stop:        w.End() + settle,
		Breakpoints: waveform.Breakpoints(w),
	})
	if err != nil {
		return 0, fmt.Errorf("macromodel: pulse transient: %w", err)
	}
	out := res.Trace(g.Cell.Output)
	if g.pulsePositive(firstDir) {
		v, _ := out.Max()
		return v, nil
	}
	v, _ := out.Min()
	return v, nil
}

// pulsePositive reports whether a pulse with the given leading edge causes a
// positive-going output glitch on this gate kind.
func (g *GateSim) pulsePositive(firstDir waveform.Direction) bool {
	if g.Cell.Kind == cells.Nor {
		// NOR: pin pulsing high (rise then fall) dips the output... pin
		// rising turns on the pull-down: output pulses LOW (negative).
		// Pin pulsing low from a high state is not reachable from the
		// non-controlling level (0), so firstDir==Rising is the physical
		// case and it is negative-going.
		return firstDir == waveform.Falling
	}
	// NAND/INV: non-controlling level is Vdd, so the physical pulse leads
	// with a falling edge and the output glitches toward Vdd.
	return firstDir == waveform.Falling
}

// CharacterizePulse fills a PulseModel for one pin.
func (g *GateSim) CharacterizePulse(pin int, firstDir waveform.Direction, spec PulseGridSpec) (*PulseModel, error) {
	if len(spec.TausFirst) < 2 || len(spec.TausSecond) < 2 || len(spec.Widths) < 2 {
		return nil, fmt.Errorf("macromodel: pulse grid too small")
	}
	grid, err := table.New(spec.TausFirst, spec.TausSecond, spec.Widths)
	if err != nil {
		return nil, err
	}
	err = parallelFill3(grid, spec.Workers, func(sim *GateSim, t1, t2, w float64) (float64, error) {
		return sim.RunPulse(pin, firstDir, t1, t2, w)
	}, g)
	if err != nil {
		return nil, fmt.Errorf("macromodel: pulse characterization: %w", err)
	}
	return &PulseModel{
		Pin:           pin,
		FirstDir:      firstDir,
		PositiveGoing: g.pulsePositive(firstDir),
		Extreme:       grid,
	}, nil
}

// ExtremeAt interpolates the extreme output voltage for a pulse.
func (m *PulseModel) ExtremeAt(ttFirst, ttSecond, width float64) float64 {
	return m.Extreme.Eval(ttFirst, ttSecond, width)
}

// MinWidth returns the smallest input pulse width that still produces a
// complete output transition past the measurement threshold (Vih for
// positive-going output pulses, Vil for negative-going) — the minimum
// transmittable pulse. ok is false when no width in the characterized range
// completes the transition; width is then +Inf, so a caller that ignores ok
// and compares a pulse width against it still concludes "never passes"
// instead of "every pulse passes". The bisection walks the grid's 1-D slice
// at (ttFirst, ttSecond), bit-identical to ExtremeAt at every step.
func (m *PulseModel) MinWidth(ttFirst, ttSecond float64, th waveform.Thresholds) (width float64, ok bool) {
	sl := m.Extreme.Slice(ttFirst, ttSecond)
	lo, hi := m.Extreme.Span(2)
	if m.PositiveGoing {
		return sl.Boundary(lo, hi, false, true, th.Vih)
	}
	return sl.Boundary(lo, hi, false, false, th.Vil)
}
