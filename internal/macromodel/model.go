package macromodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/table"
	"repro/internal/waveform"
)

// Correction is the paper's Section-4 corrective term for one output
// direction: the signed difference (actual − algorithm) measured with a step
// signal applied to all inputs simultaneously. The proximity algorithm adds
// it, scaled by the linear window factor, to its composed result.
type Correction struct {
	Delay float64 `json:"delay"`
	OutTT float64 `json:"outTT"`
}

// GateModel bundles everything characterized about one cell: measurement
// thresholds, per-arc single-input models, dual-input proximity tables,
// step-input corrections, and optional glitch models.
type GateModel struct {
	Kind      string              `json:"kind"`
	NumInputs int                 `json:"numInputs"`
	Th        waveform.Thresholds `json:"thresholds"`
	Load      float64             `json:"load"`
	Singles   []*SingleInputModel `json:"singles"`
	Duals     []*DualInputModel   `json:"duals"`
	// Corrections is keyed by the *input* direction of the simultaneous
	// step ("rising"/"falling").
	Corrections map[string]Correction `json:"corrections,omitempty"`
	Glitches    []*GlitchModel        `json:"glitches,omitempty"`
	Pulses      []*PulseModel         `json:"pulses,omitempty"`
	// CausationMap overrides the kind-derived causation per input
	// direction ("rising"/"falling") — used by complex-gate contexts.
	CausationMap map[string]Causation `json:"causationMap,omitempty"`
}

// Pulse returns the same-pin pulse model for (pin, leading direction), or
// nil when that pair was not characterized.
func (m *GateModel) Pulse(pin int, firstDir waveform.Direction) *PulseModel {
	for _, p := range m.Pulses {
		if p.Pin == pin && p.FirstDir == firstDir {
			return p
		}
	}
	return nil
}

// Glitch returns the opposite-edge glitch model for the ordered pair
// (fallPin falling, risePin rising), or nil when that pair was not
// characterized.
func (m *GateModel) Glitch(fallPin, risePin int) *GlitchModel {
	for _, g := range m.Glitches {
		if g.FallPin == fallPin && g.RisePin == risePin {
			return g
		}
	}
	return nil
}

// Single returns the single-input model for (pin, dir), or nil.
func (m *GateModel) Single(pin int, dir waveform.Direction) *SingleInputModel {
	for _, s := range m.Singles {
		if s.Pin == pin && s.Dir == dir {
			return s
		}
	}
	return nil
}

// Dual returns the dual-input model for reference pin ref in direction dir,
// preferring an exact (ref, other) pair when present.
func (m *GateModel) Dual(ref, other int, dir waveform.Direction) *DualInputModel {
	var fallback *DualInputModel
	for _, d := range m.Duals {
		if d.Dir != dir || d.RefPin != ref {
			continue
		}
		if d.OtherPin == other {
			return d
		}
		if fallback == nil {
			fallback = d
		}
	}
	return fallback
}

// Correction returns the step correction for an input direction (zero value
// when uncalibrated).
func (m *GateModel) Correction(dir waveform.Direction) Correction {
	return m.Corrections[dir.String()]
}

// SetCorrection stores a step correction.
func (m *GateModel) SetCorrection(dir waveform.Direction, c Correction) {
	if m.Corrections == nil {
		m.Corrections = map[string]Correction{}
	}
	m.Corrections[dir.String()] = c
}

// PairPolicy selects how many dual-input tables to characterize.
type PairPolicy int

const (
	// PerRef builds one dual model per reference pin (the paper's 2n-model
	// observation: n single + n dual per quantity).
	PerRef PairPolicy = iota
	// FullMatrix builds all n(n-1) ordered pairs (the paper's option 2(a)).
	FullMatrix
)

// CharSpec configures full-gate characterization.
type CharSpec struct {
	Taus       []float64
	Dual       DualGridSpec
	Pairs      PairPolicy
	Directions []waveform.Direction
	// SkipDual characterizes only the single-input models.
	SkipDual bool
}

// DefaultCharSpec covers both directions with the default grids.
func DefaultCharSpec() CharSpec {
	return CharSpec{
		Taus:       DefaultTauGrid(),
		Dual:       DefaultDualGrid(),
		Pairs:      PerRef,
		Directions: []waveform.Direction{waveform.Rising, waveform.Falling},
	}
}

// CoarseCharSpec is a fast spec for tests.
func CoarseCharSpec() CharSpec {
	return CharSpec{
		Taus:       CoarseDualGrid().Taus,
		Dual:       CoarseDualGrid(),
		Pairs:      PerRef,
		Directions: []waveform.Direction{waveform.Rising, waveform.Falling},
	}
}

// CharacterizeGate runs the full characterization flow on the cell behind
// sim: single-input models for every (pin, direction), then dual-input
// proximity tables per the pair policy. Corrections and glitch models are
// calibrated separately (they depend on the proximity algorithm and on
// opposite-direction pairs; see internal/core and CharacterizeGlitch).
func CharacterizeGate(sim *GateSim, spec CharSpec) (*GateModel, error) {
	n := sim.Cell.N()
	m := &GateModel{
		Kind:      sim.Cell.Kind.String(),
		NumInputs: n,
		Th:        sim.Th,
		Load:      sim.Cell.Load(),
	}
	if len(spec.Directions) == 0 {
		spec.Directions = []waveform.Direction{waveform.Rising, waveform.Falling}
	}
	if len(spec.Taus) == 0 {
		spec.Taus = DefaultTauGrid()
	}

	singles := map[[2]int]*SingleInputModel{}
	for _, dir := range spec.Directions {
		for pin := 0; pin < n; pin++ {
			s, err := sim.CharacterizeSingle(pin, dir, spec.Taus)
			if err != nil {
				return nil, fmt.Errorf("macromodel: single pin %d %v: %w", pin, dir, err)
			}
			m.Singles = append(m.Singles, s)
			singles[[2]int{pin, int(dir)}] = s
		}
	}
	if spec.SkipDual || n < 2 {
		return m, nil
	}

	var pairs [][2]int
	for ref := 0; ref < n; ref++ {
		if spec.Pairs == FullMatrix {
			for other := 0; other < n; other++ {
				if other != ref {
					pairs = append(pairs, [2]int{ref, other})
				}
			}
		} else {
			pairs = append(pairs, [2]int{ref, (ref + 1) % n})
		}
	}
	for _, dir := range spec.Directions {
		for _, pair := range pairs {
			ref, other := pair[0], pair[1]
			d, err := sim.CharacterizeDual(ref, other, dir,
				singles[[2]int{ref, int(dir)}], singles[[2]int{other, int(dir)}], spec.Dual)
			if err != nil {
				return nil, fmt.Errorf("macromodel: dual (%d,%d) %v: %w", ref, other, dir, err)
			}
			m.Duals = append(m.Duals, d)
		}
	}
	return m, nil
}

// Save writes the model as JSON, atomically: the bytes go to a temp file in
// the destination directory and are renamed into place, so a crashed or
// killed characterization run never leaves a truncated model for a registry
// or a later run to trip over — readers see either the old file or the
// complete new one.
func (m *GateModel) Save(path string) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("macromodel: marshal: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("macromodel: save %s: %w", path, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("macromodel: save %s: %w", path, err)
	}
	// CreateTemp opens 0600; models are world-readable artifacts.
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("macromodel: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("macromodel: save %s: %w", path, err)
	}
	name := tmp.Name()
	tmp = nil // rename owns the file now; skip the cleanup path
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("macromodel: save %s: %w", path, err)
	}
	return nil
}

// Load reads and validates a model written by Save. A structurally broken
// model (wrong grid rank, non-monotone axis, out-of-range pin) is rejected
// here, with an error naming the file and the offending table, instead of
// failing later inside a hot-path Grid.Eval.
func Load(path string) (*GateModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m GateModel
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("macromodel: unmarshal %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("macromodel: model %s: %w", path, err)
	}
	return &m, nil
}

// Validate checks the structural consistency every evaluator assumes: pins
// in range, single-input axes strictly increasing with matching sample
// counts, dual/glitch/pulse grids present with at least two finite points
// per axis and finite samples. JSON decoding already rejects grids without
// exactly three axes and non-monotone Grid axes (table.New runs inside
// Grid.UnmarshalJSON), so the axis checks here guard the plain-slice tables
// and programmatically built models.
func (m *GateModel) Validate() error {
	if m.NumInputs < 1 {
		return fmt.Errorf("numInputs %d, want >= 1", m.NumInputs)
	}
	if len(m.Singles) == 0 {
		return fmt.Errorf("no single-input models")
	}
	pinOK := func(pin int) bool { return pin >= 0 && pin < m.NumInputs }
	for i, s := range m.Singles {
		name := fmt.Sprintf("single[%d] (pin %d, %v)", i, s.Pin, s.Dir)
		if !pinOK(s.Pin) {
			return fmt.Errorf("%s: pin out of range for %d inputs", name, m.NumInputs)
		}
		if len(s.TauAxis) < 2 {
			return fmt.Errorf("%s: τ axis has %d points, want >= 2", name, len(s.TauAxis))
		}
		if len(s.Delay) != len(s.TauAxis) || len(s.OutTT) != len(s.TauAxis) {
			return fmt.Errorf("%s: %d τ points but %d delay / %d outTT samples",
				name, len(s.TauAxis), len(s.Delay), len(s.OutTT))
		}
		for k := 1; k < len(s.TauAxis); k++ {
			if s.TauAxis[k] <= s.TauAxis[k-1] {
				return fmt.Errorf("%s: τ axis not strictly increasing at index %d (%g after %g)",
					name, k, s.TauAxis[k], s.TauAxis[k-1])
			}
		}
		if s.TauAxis[0] <= 0 {
			return fmt.Errorf("%s: non-positive τ %g (log-τ interpolation needs τ > 0)", name, s.TauAxis[0])
		}
	}
	checkGrid := func(owner, which string, g *table.Grid) error {
		if g == nil {
			return fmt.Errorf("%s: missing %s grid", owner, which)
		}
		lens := [3]int{}
		for d := 0; d < 3; d++ {
			ax := g.Axis(d)
			// A single-point axis makes interpolation degenerate and the
			// glitch bisection meaningless (MinSeparation brackets over
			// axis[0]..axis[len-1]); require a real interval.
			if len(ax) < 2 {
				return fmt.Errorf("%s: %s grid axis %d has %d points, want >= 2", owner, which, d, len(ax))
			}
			lens[d] = len(ax)
			for k := range ax {
				// NaN slips past the ordering check below (every ordered
				// comparison with NaN is false), so test finiteness first.
				if math.IsNaN(ax[k]) || math.IsInf(ax[k], 0) {
					return fmt.Errorf("%s: %s grid axis %d has non-finite value at index %d", owner, which, d, k)
				}
			}
			for k := 1; k < len(ax); k++ {
				if ax[k] <= ax[k-1] {
					return fmt.Errorf("%s: %s grid axis %d not strictly increasing at index %d",
						owner, which, d, k)
				}
			}
		}
		for i := 0; i < lens[0]; i++ {
			for j := 0; j < lens[1]; j++ {
				for k := 0; k < lens[2]; k++ {
					if v := g.At(i, j, k); math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("%s: %s grid sample [%d,%d,%d] is non-finite (%g)",
							owner, which, i, j, k, v)
					}
				}
			}
		}
		return nil
	}
	for i, d := range m.Duals {
		name := fmt.Sprintf("dual[%d] (ref %d, other %d, %v)", i, d.RefPin, d.OtherPin, d.Dir)
		if !pinOK(d.RefPin) || !pinOK(d.OtherPin) {
			return fmt.Errorf("%s: pin out of range for %d inputs", name, m.NumInputs)
		}
		if d.RefPin == d.OtherPin {
			return fmt.Errorf("%s: reference and other pin coincide", name)
		}
		if err := checkGrid(name, "delayRatio", d.DelayRatio); err != nil {
			return err
		}
		if err := checkGrid(name, "ttRatio", d.TTRatio); err != nil {
			return err
		}
	}
	for i, g := range m.Glitches {
		name := fmt.Sprintf("glitch[%d] (fall %d, rise %d)", i, g.FallPin, g.RisePin)
		if !pinOK(g.FallPin) || !pinOK(g.RisePin) || g.FallPin == g.RisePin {
			return fmt.Errorf("%s: bad pin pair for %d inputs", name, m.NumInputs)
		}
		if err := checkGrid(name, "extreme", g.Extreme); err != nil {
			return err
		}
	}
	for i, p := range m.Pulses {
		name := fmt.Sprintf("pulse[%d] (pin %d, %v)", i, p.Pin, p.FirstDir)
		if !pinOK(p.Pin) {
			return fmt.Errorf("%s: pin out of range for %d inputs", name, m.NumInputs)
		}
		if err := checkGrid(name, "extreme", p.Extreme); err != nil {
			return err
		}
	}
	return nil
}
