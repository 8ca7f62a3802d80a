package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/table"
	"repro/internal/waveform"
)

// stuckGateModel is a two-input gate whose glitch extreme is pinned at v
// everywhere — between the thresholds, the output never completes a
// transition for any characterized separation.
func stuckGateModel(v float64) *macromodel.GateModel {
	g := table.MustNew(
		[]float64{50e-12, 2e-9},
		[]float64{50e-12, 2e-9},
		[]float64{-1e-9, 0, 1e-9},
	)
	g.Fill(func(_, _, _ float64) (float64, error) { return v, nil })
	return &macromodel.GateModel{
		Kind:      "nand",
		NumInputs: 2,
		Th:        waveform.Thresholds{Vil: 1.35, Vih: 3.65, Vdd: 5},
		Glitches: []*macromodel.GlitchModel{
			{FallPin: 0, RisePin: 1, NegativeGoing: true, Extreme: g},
		},
	}
}

// TestInertialDelayNeverRecovers: the +Inf/false contract must pass through
// InertialDelay unchanged — a (0, false) here once read as "zero separation
// required" to callers that dropped ok.
func TestInertialDelayNeverRecovers(t *testing.T) {
	sep, ok, err := core.InertialDelay(stuckGateModel(3.0), 0, 1, 300e-12, 300e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("never-completing pair reported a boundary at %g", sep)
	}
	if !math.IsInf(sep, 1) {
		t.Fatalf("sep = %g with ok=false, want +Inf", sep)
	}
}

// TestMinPulseWidthNeverCompletes: the same contract for same-pin pulses —
// (+Inf, false), so a caller that drops ok reads "no pulse passes", never
// "every pulse passes".
func TestMinPulseWidthNeverCompletes(t *testing.T) {
	m := stuckGateModel(3.0) // peak 3 V, below Vih: no pulse completes
	m.Pulses = []*macromodel.PulseModel{
		{Pin: 0, FirstDir: waveform.Falling, PositiveGoing: true, Extreme: m.Glitches[0].Extreme},
	}
	w, ok, err := core.MinPulseWidth(m, 0, waveform.Falling, 300e-12, 300e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !math.IsInf(w, 1) {
		t.Fatalf("MinPulseWidth = (%g, %v), want (+Inf, false)", w, ok)
	}
}

// TestEvaluatePulseVerdicts walks the three verdict classes off the
// synthetic nand2's real glitch grid: below the inertial delay filters, just
// above degrades with a finite factor > 1, and an uncharacterized pair
// reports no verdict at all.
func TestEvaluatePulseVerdicts(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	gm := m.Glitch(0, 1)
	if gm == nil {
		t.Fatal("synthetic nand2 missing glitch pair (0,1)")
	}
	const ttF, ttR = 300e-12, 300e-12
	minSep, ok := gm.MinSeparation(ttF, ttR, m.Th)
	if !ok {
		t.Fatal("synthetic grid never completes")
	}

	v, ok := core.EvaluatePulse(m, 0, 1, ttF, ttR, minSep-40e-12)
	if !ok || !v.Filtered {
		t.Fatalf("below inertial delay: verdict %+v (ok=%v), want filtered", v, ok)
	}
	if v.MinSep != minSep {
		t.Fatalf("verdict minSep %g != model's %g", v.MinSep, minSep)
	}

	v, ok = core.EvaluatePulse(m, 0, 1, ttF, ttR, minSep+40e-12)
	if !ok || v.Filtered {
		t.Fatalf("above inertial delay: verdict %+v (ok=%v), want surviving", v, ok)
	}
	if !(v.Factor > 1) || math.IsInf(v.Factor, 1) || math.IsNaN(v.Factor) {
		t.Fatalf("surviving verdict factor %g, want finite > 1", v.Factor)
	}
	if !(v.Extreme > 0 && v.Extreme < m.Th.Vdd) {
		t.Fatalf("surviving verdict extreme %g outside (0, Vdd)", v.Extreme)
	}

	if _, ok := core.EvaluatePulse(m, 1, 0, ttF, ttR, 0); ok != (m.Glitch(1, 0) != nil) {
		t.Fatal("EvaluatePulse verdict presence disagrees with model lookup")
	}
	if _, ok := core.EvaluatePulse(m, 0, 0, ttF, ttR, 0); ok {
		t.Fatal("same-pin pair produced a verdict")
	}
}

// TestEvaluatePulseNorVerdicts: positive-going pairs judge on the mirrored
// side. A real NOR bump has the falling input LEADING the rising one, so
// sep = cross(fall) − cross(rise) is negative; the verdict compares the
// pulse width −sep against the inertial boundary. A wide bump survives, a
// narrow one filters, and a positive separation (no bump at all — the
// blocking rise came first) filters rather than passing as full swing.
func TestEvaluatePulseNorVerdicts(t *testing.T) {
	m := macromodel.SynthModel("nor", 2)
	gm := m.Glitch(0, 1)
	if gm == nil {
		t.Fatal("synthetic nor2 missing glitch pair (0,1)")
	}
	if gm.NegativeGoing {
		t.Fatal("synthetic nor2 glitch is not positive-going")
	}
	const ttF, ttR = 300e-12, 300e-12
	minWidth, ok := gm.MinSeparation(ttF, ttR, m.Th)
	if !ok || math.IsInf(minWidth, 0) || minWidth <= 0 {
		t.Fatalf("nor inertial width = (%g, %v), want a finite positive boundary", minWidth, ok)
	}

	v, ok := core.EvaluatePulse(m, 0, 1, ttF, ttR, -(minWidth + 40e-12))
	if !ok || v.Filtered {
		t.Fatalf("wide bump (width %g): verdict %+v (ok=%v), want surviving", minWidth+40e-12, v, ok)
	}
	if v.Sep != minWidth+40e-12 {
		t.Fatalf("verdict width %g, want %g (trailing minus leading cause)", v.Sep, minWidth+40e-12)
	}
	if !(v.Factor >= 1) || math.IsInf(v.Factor, 1) || math.IsNaN(v.Factor) {
		t.Fatalf("surviving verdict factor %g, want finite >= 1", v.Factor)
	}
	if !(v.Extreme >= m.Th.Vih) {
		t.Fatalf("surviving bump extreme %g below Vih %g", v.Extreme, m.Th.Vih)
	}

	v, ok = core.EvaluatePulse(m, 0, 1, ttF, ttR, -(minWidth - 40e-12))
	if !ok || !v.Filtered {
		t.Fatalf("narrow bump (width %g): verdict %+v (ok=%v), want filtered", minWidth-40e-12, v, ok)
	}
	if v.MinSep != minWidth {
		t.Fatalf("verdict minSep %g != model's %g", v.MinSep, minWidth)
	}

	// Rising input first: the output never leaves its rail, not a pulse that
	// should pass at "separation above the boundary".
	v, ok = core.EvaluatePulse(m, 0, 1, ttF, ttR, minWidth+200e-12)
	if !ok || !v.Filtered {
		t.Fatalf("rise-leads pair (sep %g): verdict %+v (ok=%v), want filtered", minWidth+200e-12, v, ok)
	}
}

// TestEvaluatePulseNaNSeparation: a NaN separation must filter, not pass —
// !(NaN >= minSep) is the guarded comparison.
func TestEvaluatePulseNaNSeparation(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	v, ok := core.EvaluatePulse(m, 0, 1, 300e-12, 300e-12, math.NaN())
	if !ok || !v.Filtered {
		t.Fatalf("NaN separation verdict %+v (ok=%v), want filtered", v, ok)
	}
}

// TestEvaluatePulseNeverRecovers: with no boundary anywhere in range, every
// separation filters — +Inf minSep means every candidate is below it.
func TestEvaluatePulseNeverRecovers(t *testing.T) {
	m := stuckGateModel(3.0)
	for _, sep := range []float64{-1e-9, 0, 500e-12, 10e-9} {
		v, ok := core.EvaluatePulse(m, 0, 1, 300e-12, 300e-12, sep)
		if !ok || !v.Filtered {
			t.Fatalf("sep %g: verdict %+v (ok=%v), want filtered", sep, v, ok)
		}
	}
}
