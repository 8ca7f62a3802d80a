// Package prox is the public facade of the temporal-proximity gate-delay
// library, a from-scratch reproduction of V. Chandramouli and K. A.
// Sakallah, "Modeling the Effects of Temporal Proximity of Input Transitions
// on Gate Propagation Delay and Transition Time" (Univ. of Michigan
// CSE-TR-262-95 / DAC 1996).
//
// The facade wires together the full flow:
//
//	proc := prox.DefaultProcess()
//	gate, err := prox.BuildGate(prox.NAND, 3, proc, prox.DefaultGeometry())   // transistor netlist + VTC thresholds
//	model, err := gate.Characterize(prox.DefaultCharacterization())           // macromodels via the built-in simulator
//	res, err := model.Delay([]prox.Transition{
//	    {Pin: 0, Dir: prox.Falling, TT: 500 * prox.Picosecond, At: 0},
//	    {Pin: 1, Dir: prox.Falling, TT: 100 * prox.Picosecond, At: 120 * prox.Picosecond},
//	})
//
// Everything underneath — the Newton/trapezoidal circuit simulator, the CMOS
// cell factory, VTC extraction, table interpolation, the ProximityDelay
// algorithm, the inverter-collapse baseline and a proximity-aware static
// timing analyzer — lives in internal/ packages; this package exposes the
// types a downstream user needs.
package prox

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// Convenient time units (seconds).
const (
	Picosecond = 1e-12
	Nanosecond = 1e-9
	Femtofarad = 1e-15
	Micron     = 1e-6
)

// Direction re-exports the transition sense.
type Direction = waveform.Direction

// Transition directions.
const (
	Rising  = waveform.Rising
	Falling = waveform.Falling
)

// GateKind selects the logic function of a gate.
type GateKind = cells.Kind

// Gate kinds.
const (
	INV  = cells.Inv
	NAND = cells.Nand
	NOR  = cells.Nor
)

// Process and Geometry re-export the technology description.
type (
	Process  = cells.Process
	Geometry = cells.Geometry
)

// DefaultProcess returns the repo's 5V CMOS process (see internal/cells).
func DefaultProcess() Process { return cells.DefaultProcess() }

// AlphaPowerProcess returns the alpha-power-law variant of DefaultProcess.
func AlphaPowerProcess() Process { return cells.AlphaPowerProcess() }

// DefaultGeometry returns the default transistor sizing and 100 fF load.
func DefaultGeometry() Geometry { return cells.DefaultGeometry() }

// Thresholds re-exports the measurement thresholds (Vil/Vih/Vdd).
type Thresholds = waveform.Thresholds

// Network re-exports the series-parallel pull-down expression used to build
// complex (AOI/OAI) gates with cells.NewComplex. Complex-gate proximity is
// evaluated per sensitized input pair — each pair carries its own causation
// (AND-like series completion vs OR-like parallel conduction) — so complex
// gates are characterized pair by pair with the internal APIs rather than
// through Gate.Characterize; see internal/core's AOI21 validation and
// `cmd/repro -ext aoi` for the full recipe.
type Network = cells.Network

// Gate is a constructed cell with extracted measurement thresholds, ready
// for characterization or direct simulation.
type Gate struct {
	cell *cells.Cell
	// Family is the extracted VTC family (Section 2 of the paper).
	Family *vtc.Family
	// Th are the selected thresholds: min Vil / max Vih over the family.
	Th Thresholds

	opt spice.Options
}

// BuildGate constructs a transistor-level cell and extracts its VTC family
// and measurement thresholds.
func BuildGate(kind GateKind, inputs int, proc Process, geom Geometry) (*Gate, error) {
	cell, err := cells.New(kind, inputs, proc, geom)
	if err != nil {
		return nil, err
	}
	opt := spice.DefaultOptions()
	fam, err := vtc.Extract(cell, opt, 0.01)
	if err != nil {
		return nil, fmt.Errorf("prox: VTC extraction: %w", err)
	}
	return &Gate{cell: cell, Family: fam, Th: fam.Thresholds, opt: opt}, nil
}

// Cell exposes the underlying transistor netlist for advanced use.
func (g *Gate) Cell() *cells.Cell { return g.cell }

// Sim returns a measurement harness over the gate (golden reference runs).
func (g *Gate) Sim() *macromodel.GateSim {
	return macromodel.NewGateSim(g.cell, g.opt, g.Th)
}

// Characterization configures model building.
type Characterization struct {
	Spec macromodel.CharSpec
	// Glitch lists opposite-direction pin pairs (fall, rise) to
	// characterize for the Section-6 inertial-delay model.
	Glitch [][2]int
	// GlitchGrid sizes the glitch sweep (zero value = default grid).
	GlitchGrid macromodel.GlitchGridSpec
	// Pulse lists pins to characterize for same-pin pulse filtering
	// (the minimum transmittable pulse width). The leading edge direction
	// is the transition away from the gate's non-controlling level.
	Pulse []int
	// PulseGrid sizes the pulse sweep (zero value = default grid).
	PulseGrid macromodel.PulseGridSpec
	// SkipCorrection skips the step-input correction calibration.
	SkipCorrection bool
}

// DefaultCharacterization uses the full default grids.
func DefaultCharacterization() Characterization {
	return Characterization{Spec: macromodel.DefaultCharSpec()}
}

// FastCharacterization uses coarse grids (tests, demos).
func FastCharacterization() Characterization {
	return Characterization{Spec: macromodel.CoarseCharSpec()}
}

// Model is a characterized gate: the proximity macromodels plus the
// calculator implementing Algorithm ProximityDelay.
type Model struct {
	// Gate is the characterized gate (nil for models loaded from disk).
	Gate *Gate
	// Data is the serializable characterization payload.
	Data *macromodel.GateModel
	calc *core.Calculator
}

// Characterize builds the gate's macromodels with the built-in simulator
// and calibrates the step-input correction.
func (g *Gate) Characterize(cfg Characterization) (*Model, error) {
	sim := g.Sim()
	data, err := macromodel.CharacterizeGate(sim, cfg.Spec)
	if err != nil {
		return nil, err
	}
	calc := core.NewCalculator(data)
	if !cfg.SkipCorrection && !cfg.Spec.SkipDual && g.cell.N() >= 2 {
		if err := core.CalibrateCorrection(calc, sim, cfg.Spec.Directions...); err != nil {
			return nil, err
		}
	}
	for _, pair := range cfg.Glitch {
		grid := cfg.GlitchGrid
		if len(grid.TausFall) == 0 {
			grid = macromodel.DefaultGlitchGrid()
		}
		gm, err := sim.CharacterizeGlitch(pair[0], pair[1], grid)
		if err != nil {
			return nil, err
		}
		data.Glitches = append(data.Glitches, gm)
	}
	for _, pin := range cfg.Pulse {
		grid := cfg.PulseGrid
		if len(grid.TausFirst) == 0 {
			grid = macromodel.DefaultPulseGrid()
		}
		// The physical pulse leads away from the non-controlling level:
		// falling for NAND/INV (parked at Vdd), rising for NOR.
		firstDir := waveform.Falling
		if g.cell.Kind == cells.Nor {
			firstDir = waveform.Rising
		}
		pm, err := sim.CharacterizePulse(pin, firstDir, grid)
		if err != nil {
			return nil, err
		}
		data.Pulses = append(data.Pulses, pm)
	}
	return &Model{Gate: g, Data: data, calc: calc}, nil
}

// MinPulseWidth returns the narrowest pulse on a pin that still produces a
// complete output transition (requires the pin to be listed in
// Characterization.Pulse). When no width in the characterized range
// completes the transition, ok is false and width is +Inf, so a caller that
// skips ok still reads "no pulse passes".
func (m *Model) MinPulseWidth(pin int, ttFirst, ttSecond float64) (width float64, ok bool, err error) {
	for _, pm := range m.Data.Pulses {
		if pm.Pin == pin {
			w, ok := pm.MinWidth(ttFirst, ttSecond, m.Data.Th)
			return w, ok, nil
		}
	}
	return 0, false, fmt.Errorf("prox: no pulse model characterized for pin %d", pin)
}

// Calculator exposes the underlying core calculator (backend overrides,
// ablation flags).
func (m *Model) Calculator() *core.Calculator { return m.calc }

// Save writes the characterization payload as JSON.
func (m *Model) Save(path string) error { return m.Data.Save(path) }

// LoadModel restores a model saved with Save. The returned model evaluates
// from tables only (no gate attached).
func LoadModel(path string) (*Model, error) {
	data, err := macromodel.Load(path)
	if err != nil {
		return nil, err
	}
	return &Model{Data: data, calc: core.NewCalculator(data)}, nil
}

// Transition is one switching input presented to the model.
type Transition struct {
	Pin int
	Dir Direction
	// TT is the input transition time (full-swing ramp duration).
	TT float64
	// At is the absolute time the input crosses its measurement level.
	At float64
}

// Result re-exports the proximity evaluation outcome.
type Result = core.Result

// Delay evaluates the proximity delay and output transition time for a set
// of same-direction transitions (Algorithm ProximityDelay, Fig. 4-1).
func (m *Model) Delay(ts []Transition) (*Result, error) {
	evs := make([]core.InputEvent, len(ts))
	for i, t := range ts {
		evs[i] = core.InputEvent{Pin: t.Pin, Dir: t.Dir, TT: t.TT, Cross: t.At}
	}
	r, err := m.calc.Evaluate(evs)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// SingleDelay returns the single-input delay and output transition time.
func (m *Model) SingleDelay(pin int, dir Direction, tt float64) (delay, outTT float64, err error) {
	return m.calc.SingleDelay(pin, dir, tt)
}

// InertialDelay returns the minimum output pulse width (trailing blocking
// cause measured from the leading unblocking one: fall − rise for
// NAND-style pairs, rise − fall for NOR-style) that still yields a complete
// output transition (Section 6). Requires the pair to have been listed in
// Characterization.Glitch.
func (m *Model) InertialDelay(fallPin, risePin int, ttFall, ttRise float64) (sep float64, ok bool, err error) {
	return core.InertialDelay(m.Data, fallPin, risePin, ttFall, ttRise)
}
