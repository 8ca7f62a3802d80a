package macromodel

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/table"
	"repro/internal/waveform"
)

// flatGlitch builds a glitch model whose extreme voltage is a constant v at
// every grid node — the shape of a gate whose output never completes a
// transition anywhere in the characterized range when v sits between the
// thresholds.
func flatGlitch(v float64, negative bool) *GlitchModel {
	g := table.MustNew(
		[]float64{50e-12, 2e-9},
		[]float64{50e-12, 2e-9},
		[]float64{-1e-9, 0, 1e-9},
	)
	g.Fill(func(_, _, _ float64) (float64, error) { return v, nil })
	return &GlitchModel{FallPin: 0, RisePin: 1, NegativeGoing: negative, Extreme: g}
}

// TestMinSeparationNeverRecovers: a grid whose extreme never crosses the
// threshold has no inertial-delay boundary. The returned separation must be
// +Inf — a caller that forgets to check ok and compares a candidate
// separation against it still concludes "never completes", instead of
// reading (0, false) as "zero separation required" and passing every pulse.
func TestMinSeparationNeverRecovers(t *testing.T) {
	th := waveform.Thresholds{Vil: 1.35, Vih: 3.65, Vdd: 5}
	for _, tc := range []struct {
		name string
		gm   *GlitchModel
	}{
		{"negative dip stuck at 3V", flatGlitch(3.0, true)},
		{"positive bump stuck at 3V", flatGlitch(3.0, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sep, ok := tc.gm.MinSeparation(400e-12, 400e-12, th)
			if ok {
				t.Fatalf("never-completing grid reported a boundary at %g", sep)
			}
			if !math.IsInf(sep, 1) {
				t.Fatalf("sep = %g with ok=false, want +Inf (0 reads as 'no separation required')", sep)
			}
			// The ok-ignoring comparison every filtering caller makes.
			if candidate := 10e-9; candidate >= sep {
				t.Fatalf("candidate %g passed the +Inf threshold", candidate)
			}
		})
	}
	// Sanity: the same grids with the extreme past the threshold do bracket.
	if _, ok := flatGlitch(1.0, true).MinSeparation(400e-12, 400e-12, th); !ok {
		t.Error("always-completing negative grid found no boundary")
	}
	if _, ok := flatGlitch(4.0, false).MinSeparation(400e-12, 400e-12, th); !ok {
		t.Error("always-completing positive grid found no boundary")
	}
}

// TestSynthGlitchNorOrientation: a positive-going synthetic grid must mirror
// the physics CharacterizeGlitch would measure — the bump completes (extreme
// reaches Vih) when the falling input leads the rising one (s very negative)
// and the output stays on its low rail when it trails (s very positive) —
// so MinSeparation brackets a genuine width boundary and a real NOR pulse
// can survive filtering instead of being absorbed at every separation.
func TestSynthGlitchNorOrientation(t *testing.T) {
	m := SynthModel("nor", 2)
	gm := m.Glitch(0, 1)
	if gm == nil || gm.NegativeGoing {
		t.Fatalf("synthetic nor2 glitch pair (0,1) missing or negative-going: %+v", gm)
	}
	const tf, tr = 300e-12, 300e-12
	early := gm.ExtremeAt(tf, tr, -1.5e-9) // fall leads rise: full-swing bump
	late := gm.ExtremeAt(tf, tr, 1.5e-9)   // fall trails rise: no excursion
	if !(early >= m.Th.Vih) || !(late < m.Th.Vil) {
		t.Fatalf("bump extreme not mirrored: s=-1.5ns -> %gV, s=+1.5ns -> %gV (Vih=%g)",
			early, late, m.Th.Vih)
	}
	w, ok := gm.MinSeparation(tf, tr, m.Th)
	if !ok || math.IsInf(w, 0) || w <= 0 {
		t.Fatalf("nor inertial width = (%g, %v), want a finite positive boundary", w, ok)
	}
	// The boundary is a pulse width: the bump completes at s = −(w+ε) and is
	// absorbed at −(w−ε).
	if v := gm.ExtremeAt(tf, tr, -(w + 20e-12)); v < m.Th.Vih {
		t.Errorf("width %g past the boundary: extreme %gV below Vih", w+20e-12, v)
	}
	if v := gm.ExtremeAt(tf, tr, -(w - 20e-12)); v >= m.Th.Vih {
		t.Errorf("width %g inside the boundary: extreme %gV at/above Vih", w-20e-12, v)
	}
}

// TestValidateCatchesBrokenGlitch mutates the synthetic model's glitch
// entries one defect at a time; each must fail validation naming glitch[i].
func TestValidateCatchesBrokenGlitch(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		mutate  func(m *GateModel)
		wantSub string
	}{
		{"pins coincide", func(m *GateModel) { m.Glitches[0].RisePin = m.Glitches[0].FallPin }, "glitch[0]"},
		{"pin out of range", func(m *GateModel) { m.Glitches[1].RisePin = 9 }, "glitch[1]"},
		{"missing grid", func(m *GateModel) { m.Glitches[0].Extreme = nil }, "missing extreme grid"},
		{"single-point separation axis", func(m *GateModel) {
			m.Glitches[0].Extreme = table.MustNew(
				[]float64{50e-12, 2e-9}, []float64{50e-12, 2e-9}, []float64{0})
		}, "axis 2 has 1 points, want >= 2"},
		{"NaN in axis", func(m *GateModel) {
			// NaN defeats the ordering check (ordered comparisons with NaN
			// are all false), so the finiteness check must catch it.
			g := table.MustNew([]float64{50e-12, nan, 2e-9}, []float64{50e-12, 2e-9}, []float64{-1e-9, 1e-9})
			m.Glitches[0].Extreme = g
		}, "non-finite value"},
		{"NaN sample", func(m *GateModel) {
			m.Glitches[0].Extreme.Set(nan, 0, 0, 0)
		}, "grid sample [0,0,0] is non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := SynthModel("nand", 2)
			if len(m.Glitches) < 2 {
				t.Fatalf("synthetic nand2 carries %d glitch models, want per-ref pairs", len(m.Glitches))
			}
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("broken glitch model validated")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if err := SynthModel("nand", 2).Validate(); err != nil {
		t.Fatalf("good model rejected: %v", err)
	}
}

// TestLoadRejectsBrokenGlitchFile: a malformed glitch grid survives JSON
// decoding (table.New accepts single-point axes) and must be rejected by
// Load with an error naming both the file and the glitch table.
func TestLoadRejectsBrokenGlitchFile(t *testing.T) {
	m := SynthModel("nand", 2)
	m.Glitches[0].Extreme = table.MustNew(
		[]float64{50e-12, 2e-9}, []float64{50e-12, 2e-9}, []float64{0})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "badglitch.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("single-point glitch separation axis loaded")
	}
	if !strings.Contains(err.Error(), "badglitch.json") || !strings.Contains(err.Error(), "glitch[0]") {
		t.Fatalf("error %q does not name file and glitch table", err)
	}
}

// TestGlitchSaveLoadRoundtrip: glitch models survive the Save/Load path the
// registry uses (the characterization-data path pulse filtering loads
// through), with grids evaluating identically.
func TestGlitchSaveLoadRoundtrip(t *testing.T) {
	m := SynthModel("nand", 2)
	path := filepath.Join(t.TempDir(), "nand2.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Glitches) != len(m.Glitches) {
		t.Fatalf("loaded %d glitch models, want %d", len(got.Glitches), len(m.Glitches))
	}
	for i, want := range m.Glitches {
		g := got.Glitches[i]
		if g.FallPin != want.FallPin || g.RisePin != want.RisePin || g.NegativeGoing != want.NegativeGoing {
			t.Fatalf("glitch[%d] header changed: %+v -> %+v", i, want, g)
		}
		if a, b := g.ExtremeAt(300e-12, 400e-12, 100e-12), want.ExtremeAt(300e-12, 400e-12, 100e-12); a != b {
			t.Fatalf("glitch[%d] extreme changed across roundtrip: %g != %g", i, a, b)
		}
		sa, oka := g.MinSeparation(300e-12, 400e-12, got.Th)
		sb, okb := want.MinSeparation(300e-12, 400e-12, m.Th)
		if sa != sb || oka != okb {
			t.Fatalf("glitch[%d] inertial delay changed: (%g,%v) != (%g,%v)", i, sa, oka, sb, okb)
		}
	}
}
