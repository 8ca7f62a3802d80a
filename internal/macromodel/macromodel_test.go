package macromodel_test

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// nand2Rig caches a NAND2 sim + coarse model for the package's tests.
var (
	rigOnce sync.Once
	rigSim  *macromodel.GateSim
	rigMod  *macromodel.GateModel
	rigErr  error
)

func nand2Rig(t *testing.T) (*macromodel.GateSim, *macromodel.GateModel) {
	t.Helper()
	rigOnce.Do(func() {
		cell := cells.MustNew(cells.Nand, 2, cells.DefaultProcess(), cells.DefaultGeometry())
		fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
		if err != nil {
			rigErr = err
			return
		}
		rigSim = macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
		rigMod, rigErr = macromodel.CharacterizeGate(rigSim, macromodel.CoarseCharSpec())
	})
	if rigErr != nil {
		t.Fatal(rigErr)
	}
	return rigSim, rigMod
}

func TestRunValidation(t *testing.T) {
	sim, _ := nand2Rig(t)
	if _, err := sim.Run(nil); err == nil {
		t.Error("empty stimulus accepted")
	}
	if _, err := sim.Run([]macromodel.PinStim{{Pin: 9, Dir: waveform.Falling, TT: 1e-10}}); err == nil {
		t.Error("out-of-range pin accepted")
	}
	if _, err := sim.Run([]macromodel.PinStim{
		{Pin: 0, Dir: waveform.Falling, TT: 1e-10},
		{Pin: 0, Dir: waveform.Rising, TT: 1e-10},
	}); err == nil {
		t.Error("double-stimulated pin accepted")
	}
	if _, err := sim.Run([]macromodel.PinStim{{Pin: 0, Dir: waveform.Falling, TT: 0}}); err == nil {
		t.Error("zero transition time accepted")
	}
}

// TestSingleDelayIncreasesWithTau: slower inputs mean longer measured delay
// (the monotonicity the Section-2 threshold choice guarantees).
func TestSingleDelayIncreasesWithTau(t *testing.T) {
	_, model := nand2Rig(t)
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		m := model.Single(0, dir)
		if m == nil {
			t.Fatalf("missing single model for %v", dir)
		}
		prev := -1.0
		for _, tau := range []float64{60e-12, 120e-12, 300e-12, 700e-12, 1.4e-9} {
			d := m.DelayAt(tau)
			if d <= prev {
				t.Errorf("%v: delay not increasing at τ=%.0fps: %.1f <= %.1f ps",
					dir, tau*1e12, d*1e12, prev*1e12)
			}
			prev = d
		}
	}
}

// TestPairFarSeparationMatchesSingle: with the other input far outside the
// proximity window, the pair delay equals the single-input delay.
func TestPairFarSeparationMatchesSingle(t *testing.T) {
	sim, _ := nand2Rig(t)
	dir := waveform.Falling
	tau := 300e-12
	single, singleTT, err := sim.RunSingle(0, dir, tau)
	if err != nil {
		t.Fatal(err)
	}
	pair, pairTT, err := sim.RunPair(0, 1, dir, tau, 100e-12, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pair-single) / single; rel > 0.02 {
		t.Errorf("far pair delay %.1fps deviates from single %.1fps (%.1f%%)",
			pair*1e12, single*1e12, rel*100)
	}
	if rel := math.Abs(pairTT-singleTT) / singleTT; rel > 0.03 {
		t.Errorf("far pair TT %.1fps deviates from single %.1fps", pairTT*1e12, singleTT*1e12)
	}
}

// TestSeparationControl: the harness places the requested threshold-crossing
// separation exactly.
func TestSeparationControl(t *testing.T) {
	sim, _ := nand2Rig(t)
	res, err := sim.Run([]macromodel.PinStim{
		{Pin: 0, Dir: waveform.Falling, TT: 400e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 150e-12, Cross: 123e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := sim.Th
	s, err := th.Separation(res.PWLs[0], waveform.Falling, res.PWLs[1], waveform.Falling)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-123e-12) > 1e-15 {
		t.Errorf("constructed separation = %.3fps, want 123ps", s*1e12)
	}
}

// TestDualModelShape: the characterized dual table approaches ratio 1 at the
// far edge of the window and is below 1 near coincidence for falling pairs
// (parallel pull-up speedup).
func TestDualModelShape(t *testing.T) {
	_, model := nand2Rig(t)
	d := model.Dual(0, 1, waveform.Falling)
	if d == nil {
		t.Fatal("missing dual model")
	}
	single := model.Single(0, waveform.Falling)
	tau := 300e-12
	d1 := single.DelayAt(tau)
	x1 := tau / d1
	atWindow := d.EvalDelayRatio(x1, 1.0, 1.0)
	coincident := d.EvalDelayRatio(x1, 1.0, 0.0)
	if math.Abs(atWindow-1) > 0.1 {
		t.Errorf("ratio at window edge = %.3f, want ~1", atWindow)
	}
	if coincident >= atWindow {
		t.Errorf("coincident ratio %.3f should be below window-edge ratio %.3f", coincident, atWindow)
	}
}

func TestGateModelLookups(t *testing.T) {
	_, model := nand2Rig(t)
	if model.Single(0, waveform.Rising) == nil || model.Single(1, waveform.Falling) == nil {
		t.Error("missing single models")
	}
	if model.Single(7, waveform.Rising) != nil {
		t.Error("phantom single model")
	}
	// PerRef policy: exact pair (0,1) exists; (1,0) exists (wraps); any
	// ref with the direction falls back.
	if model.Dual(0, 1, waveform.Falling) == nil {
		t.Error("missing dual (0,1)")
	}
	if model.Dual(1, 0, waveform.Falling) == nil {
		t.Error("missing dual ref 1")
	}
}

func TestCorrectionStorage(t *testing.T) {
	_, model := nand2Rig(t)
	model.SetCorrection(waveform.Rising, macromodel.Correction{Delay: 1e-12, OutTT: -2e-12})
	c := model.Correction(waveform.Rising)
	if c.Delay != 1e-12 || c.OutTT != -2e-12 {
		t.Errorf("correction roundtrip = %+v", c)
	}
	if z := model.Correction(waveform.Falling); z.Delay != 0 && model.Corrections["falling"] == (macromodel.Correction{}) {
		t.Errorf("uncalibrated correction nonzero: %+v", z)
	}
}

func TestModelSaveLoadRoundtrip(t *testing.T) {
	_, model := nand2Rig(t)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := macromodel.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputs != model.NumInputs || back.Kind != model.Kind {
		t.Error("metadata lost")
	}
	s0 := model.Single(0, waveform.Falling)
	s1 := back.Single(0, waveform.Falling)
	for _, tau := range []float64{80e-12, 400e-12, 1e-9} {
		if a, b := s0.DelayAt(tau), s1.DelayAt(tau); math.Abs(a-b) > 1e-18 {
			t.Errorf("single model changed through JSON: %g vs %g", a, b)
		}
	}
	d0 := model.Dual(0, 1, waveform.Falling)
	d1 := back.Dual(0, 1, waveform.Falling)
	if a, b := d0.EvalDelayRatio(1, 1, 0.5), d1.EvalDelayRatio(1, 1, 0.5); math.Abs(a-b) > 1e-18 {
		t.Errorf("dual model changed through JSON: %g vs %g", a, b)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := macromodel.Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNormalizedForms(t *testing.T) {
	_, model := nand2Rig(t)
	s := model.Single(0, waveform.Falling)
	u, dOverTau := s.NormalizedDelay()
	if len(u) != len(s.TauAxis) || len(dOverTau) != len(s.TauAxis) {
		t.Fatal("normalized form length mismatch")
	}
	// u = CL/(K·Vdd·τ) decreases as τ increases.
	for i := 1; i < len(u); i++ {
		if u[i] >= u[i-1] {
			t.Errorf("normalized load not decreasing: u[%d]=%g u[%d]=%g", i-1, u[i-1], i, u[i])
		}
	}
}

func TestCausationMapping(t *testing.T) {
	cases := []struct {
		kind string
		dir  waveform.Direction
		want macromodel.Causation
	}{
		{"nand", waveform.Falling, macromodel.FirstCause},
		{"nand", waveform.Rising, macromodel.LastCause},
		{"nor", waveform.Rising, macromodel.FirstCause},
		{"nor", waveform.Falling, macromodel.LastCause},
		{"inv", waveform.Falling, macromodel.FirstCause},
	}
	for _, c := range cases {
		if got := macromodel.CausationFor(c.kind, c.dir); got != c.want {
			t.Errorf("CausationFor(%s, %v) = %v, want %v", c.kind, c.dir, got, c.want)
		}
	}
}

func TestCharacterizeValidation(t *testing.T) {
	sim, model := nand2Rig(t)
	if _, err := sim.CharacterizeSingle(0, waveform.Falling, []float64{1e-10}); err == nil {
		t.Error("single-point τ grid accepted")
	}
	if _, err := sim.CharacterizeSingle(0, waveform.Falling, []float64{2e-10, 1e-10}); err == nil {
		t.Error("unsorted τ grid accepted")
	}
	s0 := model.Single(0, waveform.Falling)
	if _, err := sim.CharacterizeDual(0, 0, waveform.Falling, s0, s0, macromodel.CoarseDualGrid()); err == nil {
		t.Error("dual model with identical pins accepted")
	}
}

// TestGlitchModelShape: the glitch extreme approaches the settled rails on
// both ends of the separation axis.
func TestGlitchModelShape(t *testing.T) {
	sim, _ := nand2Rig(t)
	spec := macromodel.GlitchGridSpec{
		TausFall: []float64{100e-12, 500e-12},
		TausRise: []float64{100e-12, 500e-12},
		Seps:     []float64{-1.5e-9, -0.75e-9, 0, 0.5e-9, 1e-9, 1.5e-9, 2e-9},
	}
	gm, err := sim.CharacterizeGlitch(0, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Falling input far EARLY (s very negative): the rising input cuts the
	// output down right after — the output ends low either way, but the
	// extreme (minimum) is low only when the down-transition completes,
	// which needs the fall LATE. Check monotone trend.
	early := gm.ExtremeAt(500e-12, 500e-12, -1.5e-9)
	late := gm.ExtremeAt(500e-12, 500e-12, 2e-9)
	if !(late < early) {
		t.Errorf("glitch extreme should deepen with later falling input: early=%.2f late=%.2f", early, late)
	}
	// Inertial delay exists within this range for some corner.
	th := sim.Th
	if _, ok := gm.MinSeparation(500e-12, 500e-12, th); !ok {
		t.Error("no inertial boundary found in range")
	}
}

// TestRunGlitchDirect confirms the simulator-level glitch measurement.
func TestRunGlitchDirect(t *testing.T) {
	sim, _ := nand2Rig(t)
	// Coincident opposite transitions: output dips but does not complete.
	v, err := sim.RunGlitch(0, 1, 500e-12, 500e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.5 || v > 5 {
		t.Errorf("coincident glitch extreme = %.2f, expected a partial dip", v)
	}
	// Fall long after rise: full transition to ground happens first.
	v2, err := sim.RunGlitch(0, 1, 100e-12, 100e-12, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if v2 > 0.2 {
		t.Errorf("well-separated pair should complete the fall: extreme = %.2f", v2)
	}
}
