package macromodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/macromodel"
	"repro/internal/table"
	"repro/internal/waveform"
)

// legacyMinSeparation is GlitchModel.MinSeparation as it was before the
// judgment walked the grid's 1-D slice: a full 3-D ExtremeAt per step and a
// copied axis. Kept verbatim as the bit-exactness reference.
func legacyMinSeparation(m *macromodel.GlitchModel, ttFall, ttRise float64, th waveform.Thresholds) (sep float64, ok bool) {
	level := th.Vil
	if !m.NegativeGoing {
		level = th.Vih
	}
	completes := func(w float64) bool {
		s := w
		if !m.NegativeGoing {
			s = -w
		}
		v := m.ExtremeAt(ttFall, ttRise, s)
		if m.NegativeGoing {
			return v <= level
		}
		return v >= level
	}
	axis := m.Extreme.Axis(2)
	lo, hi := axis[0], axis[len(axis)-1]
	if !m.NegativeGoing {
		lo, hi = -hi, -lo
	}
	if !completes(hi) {
		return math.Inf(1), false
	}
	if completes(lo) {
		return lo, true
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if completes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// legacyMinWidth is PulseModel.MinWidth before the slice, verbatim,
// including its (0, false) when no width completes (MinWidth now returns
// +Inf there); the comparison checks ok first.
func legacyMinWidth(m *macromodel.PulseModel, ttFirst, ttSecond float64, th waveform.Thresholds) (width float64, ok bool) {
	level := th.Vil
	if m.PositiveGoing {
		level = th.Vih
	}
	completes := func(w float64) bool {
		v := m.ExtremeAt(ttFirst, ttSecond, w)
		if m.PositiveGoing {
			return v >= level
		}
		return v <= level
	}
	axis := m.Extreme.Axis(2)
	lo, hi := axis[0], axis[len(axis)-1]
	if !completes(hi) {
		return 0, false
	}
	if completes(lo) {
		return lo, true
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if completes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

var bisectTh = waveform.Thresholds{Vil: 1.35, Vih: 3.65, Vdd: 5}

// randExtremeGrid fills a (τ1, τ2, width-or-separation) grid with extreme
// voltages: a noisy sigmoid across the third axis (so most brackets bisect
// a real boundary), or pure noise (non-monotone: the bisection still runs
// and must agree step for step), or a constant that never completes.
// rising makes the extreme grow toward Vdd as the pulse widens; mirrored
// runs the width along −s (a positive-going glitch's separation axis).
func randExtremeGrid(rng *rand.Rand, rising, mirrored bool) *table.Grid {
	t1 := table.LogSpace(50e-12, 2e-9, 2+rng.Intn(4))
	t2 := table.LogSpace(50e-12, 2e-9, 2+rng.Intn(4))
	third := table.LinSpace(-2e-9, 1.5e-9, 2+rng.Intn(28))
	g := table.MustNew(t1, t2, third)
	mode := rng.Intn(4)
	mid := (rng.Float64()*3 - 1.5) * 1e-9
	scale := (0.05 + rng.Float64()) * 1e-9
	_ = g.Fill(func(x1, x2, w float64) (float64, error) {
		switch mode {
		case 0:
			return 5 * rng.Float64(), nil
		case 1:
			if rising {
				return 0.2, nil
			}
			return 4.8, nil
		}
		if mirrored {
			w = -w
		}
		x := (w - mid - 0.2*(x1+x2)) / scale
		sig := 1 / (1 + math.Exp(-x))
		v := 5 * sig
		if !rising {
			v = 5 - v
		}
		return v + 0.3*rng.NormFloat64(), nil
	})
	return g
}

func randTT(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return []float64{10e-12, 50e-12, 2e-9, 5e-9}[rng.Intn(4)] // outside or on the axis ends
	}
	return 50e-12 * math.Pow(40, rng.Float64())
}

// TestMinSeparationMatchesLegacy: the slice bisection returns the legacy
// bisection's exact (sep, ok) for both glitch polarities over random
// monotone, noisy and never-completing grids.
func TestMinSeparationMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	judged := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		neg := trial%2 == 0
		m := &macromodel.GlitchModel{FallPin: 0, RisePin: 1, NegativeGoing: neg, Extreme: randExtremeGrid(rng, !neg, !neg)}
		for k := 0; k < 20; k++ {
			tf, tr := randTT(rng), randTT(rng)
			got, gotOK := m.MinSeparation(tf, tr, bisectTh)
			want, wantOK := legacyMinSeparation(m, tf, tr, bisectTh)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (negative-going %v) τ=(%g,%g): got (%v, %v), legacy (%v, %v)",
					trial, neg, tf, tr, got, gotOK, want, wantOK)
			}
			if gotOK {
				judged[neg]++
			}
		}
	}
	if judged[true] < 1000 || judged[false] < 1000 {
		t.Fatalf("too few completing pairs compared: %v", judged)
	}
}

// TestMinWidthMatchesLegacy: the same for same-pin pulse models, both
// output polarities; where no width completes the legacy code returned 0
// and MinWidth now returns +Inf (ok false on both).
func TestMinWidthMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	never := 0
	for trial := 0; trial < 600; trial++ {
		pos := trial%2 == 0
		m := &macromodel.PulseModel{Pin: 0, FirstDir: waveform.Falling, PositiveGoing: pos, Extreme: randExtremeGrid(rng, pos, false)}
		for k := 0; k < 20; k++ {
			t1, t2 := randTT(rng), randTT(rng)
			got, gotOK := m.MinWidth(t1, t2, bisectTh)
			want, wantOK := legacyMinWidth(m, t1, t2, bisectTh)
			if !wantOK {
				never++
				if gotOK || !math.IsInf(got, 1) {
					t.Fatalf("trial %d: no width completes, got (%v, %v), want (+Inf, false)", trial, got, gotOK)
				}
				continue
			}
			if !gotOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (positive-going %v) τ=(%g,%g): got (%v, %v), legacy (%v, %v)",
					trial, pos, t1, t2, got, gotOK, want, wantOK)
			}
		}
	}
	if never == 0 {
		t.Fatal("no never-completing case compared")
	}
}

// TestMinWidthNeverCompletes: a pulse model whose extreme never passes the
// threshold reports (+Inf, false), never 0 — a caller that skips ok must
// read "no pulse passes", not "every pulse passes".
func TestMinWidthNeverCompletes(t *testing.T) {
	g := table.MustNew([]float64{50e-12, 1e-9}, []float64{50e-12, 1e-9}, table.LinSpace(50e-12, 2e-9, 5))
	_ = g.Fill(func(_, _, _ float64) (float64, error) { return 1.0, nil }) // peak 1 V < Vih
	m := &macromodel.PulseModel{Pin: 0, FirstDir: waveform.Falling, PositiveGoing: true, Extreme: g}
	w, ok := m.MinWidth(200e-12, 200e-12, bisectTh)
	if ok || !math.IsInf(w, 1) {
		t.Fatalf("MinWidth = (%v, %v), want (+Inf, false)", w, ok)
	}
	if 3e-9 >= w {
		t.Error("a 3 ns pulse compares as passing against the never-completes width")
	}
}

// freshSingle copies a single-input model's exported fields into a new
// value, which has never been looked up (no cached ln-τ nodes).
func freshSingle(s *macromodel.SingleInputModel) *macromodel.SingleInputModel {
	return &macromodel.SingleInputModel{
		Pin: s.Pin, Dir: s.Dir,
		TauAxis: append([]float64(nil), s.TauAxis...),
		Delay:   append([]float64(nil), s.Delay...),
		OutTT:   append([]float64(nil), s.OutTT...),
	}
}

// TestSingleLnCacheFollowsEdits: the ln-τ nodes cached by the first lookup
// never go stale — after the axis is edited in place, or replaced by one of
// another length, lookups match a model that was never looked up.
func TestSingleLnCacheFollowsEdits(t *testing.T) {
	s := macromodel.SynthModel("nand", 2).Single(0, waveform.Falling)
	taus := []float64{40e-12, 77e-12, 130e-12, 333e-12, 901e-12, 1.7e-9, 2.5e-9}
	check := func(stage string) {
		t.Helper()
		ref := freshSingle(s)
		for _, tau := range taus {
			d, tt := s.At(tau)
			if d != ref.DelayAt(tau) || tt != ref.OutTTAt(tau) || d != s.DelayAt(tau) || tt != s.OutTTAt(tau) {
				t.Fatalf("%s: τ=%g: At = (%v, %v), uncached model (%v, %v)", stage, tau, d, tt, ref.DelayAt(tau), ref.OutTTAt(tau))
			}
		}
	}
	check("first lookup")
	for i := range s.TauAxis {
		s.TauAxis[i] *= 1.3 // in place: same slice, new node values
	}
	check("axis scaled in place")
	s.TauAxis = s.TauAxis[1:]
	s.Delay, s.OutTT = s.Delay[1:], s.OutTT[1:]
	check("axis shortened")
}
