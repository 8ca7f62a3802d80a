package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// SimBackend evaluates the dual-input proximity ratios by direct transient
// simulation, reproducing the paper's validation setup in which HSPICE
// itself served as the dual-input macromodel. It isolates the error of the
// compositional algorithm from table-interpolation error.
type SimBackend struct {
	Sim *macromodel.GateSim

	mu    sync.Mutex
	cache map[simKey][2]float64
}

type simKey struct {
	ref, other int
	dir        waveform.Direction
	tauRef     int64 // femtoseconds, rounded
	tauOther   int64
	sStar      int64
}

// NewSimBackend wraps a gate simulation harness.
func NewSimBackend(sim *macromodel.GateSim) *SimBackend {
	return &SimBackend{Sim: sim, cache: map[simKey][2]float64{}}
}

// Ratios implements DualBackend by simulation.
func (b *SimBackend) Ratios(ref, other int, dir waveform.Direction,
	tauRef, tauOther, sStar, d1, tt1 float64) (float64, float64, error) {
	if d1 <= 0 || tt1 <= 0 {
		return 0, 0, fmt.Errorf("core: sim backend needs positive normalizers (d1=%g tt1=%g)", d1, tt1)
	}
	key := simKey{ref, other, dir, fs(tauRef), fs(tauOther), fs(sStar)}
	b.mu.Lock()
	if v, ok := b.cache[key]; ok {
		b.mu.Unlock()
		return v[0], v[1], nil
	}
	b.mu.Unlock()

	d2, tt2, err := b.Sim.RunPair(ref, other, dir, tauRef, tauOther, sStar)
	if err != nil {
		return 0, 0, err
	}
	dr, tr := d2/d1, tt2/tt1
	b.mu.Lock()
	b.cache[key] = [2]float64{dr, tr}
	b.mu.Unlock()
	return dr, tr, nil
}

func fs(t float64) int64 { return int64(math.Round(t * 1e15)) }

// AnalyticBackend evaluates the dual-input proximity ratios from fitted
// closed-form polynomials (macromodel.FitGate) instead of interpolated
// tables — the paper's "closed form analytical forms do exist" variant.
type AnalyticBackend struct {
	Model *macromodel.AnalyticModel
}

// Ratios implements DualBackend over the analytic model.
func (b *AnalyticBackend) Ratios(ref, other int, dir waveform.Direction,
	tauRef, tauOther, sStar, d1, tt1 float64) (float64, float64, error) {
	am := b.Model.Dual(ref, other, dir)
	if am == nil {
		return 0, 0, fmt.Errorf("core: no analytic dual model for ref pin %d %v", ref, dir)
	}
	x1 := tauRef / d1
	x2 := tauOther / d1
	x3 := sStar / d1
	return am.EvalDelayRatio(x1, x2, x3), am.EvalTTRatio(x1, x2, x3), nil
}

// CalibrateCorrection measures the paper's Section-4 corrective term for
// each direction: the difference between the true (simulated) delay and the
// uncorrected algorithm's delay when a near-step signal is applied to ALL
// inputs simultaneously. The signed difference is stored on the model so
// Evaluate can apply it.
func CalibrateCorrection(calc *Calculator, sim *macromodel.GateSim, dirs ...waveform.Direction) error {
	if len(dirs) == 0 {
		dirs = []waveform.Direction{waveform.Rising, waveform.Falling}
	}
	n := calc.Model.NumInputs
	if n < 2 {
		return nil
	}
	// "Step" stimulus: the fastest characterized transition time.
	step := calc.Model.Singles[0].TauAxis[0]
	saved := calc.DisableCorrection
	calc.DisableCorrection = true
	defer func() { calc.DisableCorrection = saved }()

	for _, dir := range dirs {
		events := make([]InputEvent, n)
		stims := make([]macromodel.PinStim, n)
		for p := 0; p < n; p++ {
			events[p] = InputEvent{Pin: p, Dir: dir, TT: step, Cross: 0}
			stims[p] = macromodel.PinStim{Pin: p, Dir: dir, TT: step, Cross: 0}
		}
		model, err := calc.Evaluate(events)
		if err != nil {
			return fmt.Errorf("core: calibrate %v: evaluate: %w", dir, err)
		}
		res, err := sim.Run(stims)
		if err != nil {
			return fmt.Errorf("core: calibrate %v: simulate: %w", dir, err)
		}
		actualD, err := res.DelayFrom(0)
		if err != nil {
			return fmt.Errorf("core: calibrate %v: measure delay: %w", dir, err)
		}
		actualT, err := res.OutputTT()
		if err != nil {
			return fmt.Errorf("core: calibrate %v: measure transition: %w", dir, err)
		}
		calc.Model.SetCorrection(dir, macromodel.Correction{
			Delay: actualD - model.Delay,
			OutTT: actualT - model.OutTT,
		})
	}
	return nil
}

// MinPulseWidth returns the narrowest same-pin input pulse (leading edge
// firstDir) that still produces a complete output transition — the inertial
// pulse-filtering boundary of Section 6's closing remark. Requires a
// characterized pulse model for the pin. When no width in the characterized
// range completes the transition, ok is false and width is +Inf (never
// zero: "no pulse passes" must not read as "every pulse passes").
func MinPulseWidth(m *macromodel.GateModel, pin int, firstDir waveform.Direction, ttFirst, ttSecond float64) (width float64, ok bool, err error) {
	pm := m.Pulse(pin, firstDir)
	if pm == nil {
		return 0, false, fmt.Errorf("core: no pulse model characterized for pin %d leading %v", pin, firstDir)
	}
	w, ok := pm.MinWidth(ttFirst, ttSecond, m.Th)
	return w, ok, nil
}

// InertialDelay returns the minimum output pulse width for which the gate
// still produces a complete output transition — the Section-6 inertial
// delay. The width is the trailing (blocking) cause's crossing measured
// from the leading (unblocking) cause's: fall − rise for negative-going
// (NAND-style) pairs, rise − fall for positive-going (NOR-style) ones; see
// GlitchModel.MinSeparation. It requires a characterized glitch model for
// the pair. When no width in the characterized range completes the
// transition, ok is false and sep is +Inf (never zero: "no usable
// separation" must not read as "zero separation required").
func InertialDelay(m *macromodel.GateModel, fallPin, risePin int, ttFall, ttRise float64) (sep float64, ok bool, err error) {
	if g := m.Glitch(fallPin, risePin); g != nil {
		s, ok := g.MinSeparation(ttFall, ttRise, m.Th)
		return s, ok, nil
	}
	return 0, false, fmt.Errorf("core: no glitch model characterized for pair (fall=%d, rise=%d)", fallPin, risePin)
}
