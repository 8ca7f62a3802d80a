package prox

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/macromodel"
	"repro/internal/table"
	"repro/internal/waveform"
)

// facade rig: a fast-characterized NAND2 shared across the package tests.
var (
	fOnce  sync.Once
	fGate  *Gate
	fModel *Model
	fErr   error
)

func facadeRig(t *testing.T) (*Gate, *Model) {
	t.Helper()
	fOnce.Do(func() {
		fGate, fErr = BuildGate(NAND, 2, DefaultProcess(), DefaultGeometry())
		if fErr != nil {
			return
		}
		cfg := FastCharacterization()
		cfg.Glitch = [][2]int{{0, 1}}
		cfg.GlitchGrid.TausFall = []float64{100 * Picosecond, 1 * Nanosecond}
		cfg.GlitchGrid.TausRise = []float64{100 * Picosecond, 1 * Nanosecond}
		cfg.GlitchGrid.Seps = []float64{-1 * Nanosecond, -0.5 * Nanosecond, 0, 0.5 * Nanosecond, 1 * Nanosecond, 1.5 * Nanosecond, 2 * Nanosecond}
		cfg.Pulse = []int{0}
		cfg.PulseGrid.TausFirst = []float64{100 * Picosecond, 600 * Picosecond}
		cfg.PulseGrid.TausSecond = []float64{100 * Picosecond, 600 * Picosecond}
		cfg.PulseGrid.Widths = []float64{100 * Picosecond, 500 * Picosecond, 1 * Nanosecond, 1.6 * Nanosecond, 2.2 * Nanosecond}
		fModel, fErr = fGate.Characterize(cfg)
	})
	if fErr != nil {
		t.Fatal(fErr)
	}
	return fGate, fModel
}

func TestBuildGateExtractsThresholds(t *testing.T) {
	gate, _ := facadeRig(t)
	if err := gate.Th.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(gate.Family.Curves) != 3 {
		t.Errorf("NAND2 family has %d curves, want 3", len(gate.Family.Curves))
	}
	if gate.Cell() == nil {
		t.Error("cell accessor nil")
	}
}

func TestBuildGateValidation(t *testing.T) {
	if _, err := BuildGate(INV, 3, DefaultProcess(), DefaultGeometry()); err == nil {
		t.Error("3-input inverter accepted")
	}
}

func TestDelayEvaluation(t *testing.T) {
	_, model := facadeRig(t)
	res, err := model.Delay([]Transition{
		{Pin: 0, Dir: Falling, TT: 500 * Picosecond, At: 0},
		{Pin: 1, Dir: Falling, TT: 100 * Picosecond, At: 50 * Picosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Errorf("delay = %g", res.Delay)
	}
	single, _, err := model.SingleDelay(0, Falling, 500*Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay >= single {
		t.Errorf("proximity pair (%.1fps) should be faster than the slow input alone (%.1fps)",
			res.Delay/Picosecond, single/Picosecond)
	}
}

func TestModelSaveLoad(t *testing.T) {
	_, model := facadeRig(t)
	path := filepath.Join(t.TempDir(), "nand2.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := []Transition{
		{Pin: 0, Dir: Rising, TT: 300 * Picosecond, At: 0},
		{Pin: 1, Dir: Rising, TT: 300 * Picosecond, At: 20 * Picosecond},
	}
	a, err := model.Delay(ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Delay(ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Delay-b.Delay) > 1e-18 {
		t.Errorf("loaded model disagrees: %.2fps vs %.2fps", a.Delay/Picosecond, b.Delay/Picosecond)
	}
	if loaded.Gate != nil {
		t.Error("loaded model should not claim a live gate")
	}
}

func TestInertialDelayFacade(t *testing.T) {
	_, model := facadeRig(t)
	sep, ok, err := model.InertialDelay(0, 1, 500*Picosecond, 500*Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no inertial boundary in characterized range")
	}
	if sep <= 0 || sep > 2*Nanosecond {
		t.Errorf("inertial delay %.0fps out of plausible range", sep/Picosecond)
	}
	if _, _, err := model.InertialDelay(1, 0, 1e-10, 1e-10); err == nil {
		t.Error("uncharacterized glitch pair accepted")
	}
}

func TestMinPulseWidthFacade(t *testing.T) {
	_, model := facadeRig(t)
	w, ok, err := model.MinPulseWidth(0, 200*Picosecond, 200*Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no transmittable width in characterized range")
	}
	if w <= 0 || w > 2.2*Nanosecond {
		t.Errorf("min pulse width %.0fps out of range", w/Picosecond)
	}
	if _, _, err := model.MinPulseWidth(1, 1e-10, 1e-10); err == nil {
		t.Error("uncharacterized pulse pin accepted")
	}
}

// TestMinPulseWidthNeverCompletes: when no characterized width passes the
// threshold the facade reports (+Inf, false), never 0.
func TestMinPulseWidthNeverCompletes(t *testing.T) {
	g := table.MustNew([]float64{50e-12, 2e-9}, []float64{50e-12, 2e-9}, table.LinSpace(50e-12, 2.5e-9, 5))
	g.Fill(func(_, _, _ float64) (float64, error) { return 1.0, nil }) // peak 1 V, below Vih
	data := macromodel.SynthModel("nand", 2)
	data.Pulses = []*macromodel.PulseModel{{Pin: 0, FirstDir: waveform.Falling, PositiveGoing: true, Extreme: g}}
	w, ok, err := (&Model{Data: data}).MinPulseWidth(0, 200*Picosecond, 200*Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !math.IsInf(w, 1) {
		t.Fatalf("MinPulseWidth = (%g, %v), want (+Inf, false)", w, ok)
	}
}

func TestCalculatorAccessor(t *testing.T) {
	_, model := facadeRig(t)
	if model.Calculator() == nil {
		t.Fatal("calculator accessor nil")
	}
	// Ablation flags are reachable through the accessor.
	model.Calculator().DisableCorrection = true
	defer func() { model.Calculator().DisableCorrection = false }()
	res, err := model.Delay([]Transition{
		{Pin: 0, Dir: Falling, TT: 100 * Picosecond, At: 0},
		{Pin: 1, Dir: Falling, TT: 100 * Picosecond, At: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorrectionApplied != 0 {
		t.Error("correction applied while disabled")
	}
}

func TestSimHarnessAccess(t *testing.T) {
	gate, _ := facadeRig(t)
	sim := gate.Sim()
	d, tt, err := sim.RunSingle(0, Falling, 300*Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || tt <= 0 {
		t.Errorf("sim measurements: d=%g tt=%g", d, tt)
	}
}
