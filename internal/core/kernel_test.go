package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/macromodel"
	"repro/internal/waveform"
)

// tableDual is a DualBackend that reads the model's own tables: the Dual
// knob's path with answers the table path can be checked against.
type tableDual struct{ m *macromodel.GateModel }

func (b tableDual) Ratios(ref, other int, dir waveform.Direction, tauRef, tauOther, sStar, d1, tt1 float64) (float64, float64, error) {
	return legacyTableBackend{m: b.m}.Ratios(ref, other, dir, tauRef, tauOther, sStar, d1, tt1)
}

// randEvents draws a same-direction event set on distinct pins of an
// n-input gate, in one of several shapes: clustered inside the proximity
// windows, spread wide (lapsed and pruned inputs), with exact or
// within-tieEps dominance ties, and with transition times outside the
// characterized τ axis.
func randEvents(rng *rand.Rand, c *Calculator, n int, dir waveform.Direction) []InputEvent {
	k := 1 + rng.Intn(n)
	pins := rng.Perm(n)[:k]
	evs := make([]InputEvent, k)
	spread := []float64{30e-12, 150e-12, 600e-12, 3e-9}[rng.Intn(4)]
	for i, p := range pins {
		tt := 50e-12 * math.Pow(40, rng.Float64())
		switch rng.Intn(10) {
		case 0:
			tt = 10e-12
		case 1:
			tt = 8e-9
		}
		evs[i] = InputEvent{Pin: p, Dir: dir, TT: tt, Cross: spread * rng.NormFloat64()}
	}
	if k >= 2 && rng.Intn(3) == 0 {
		// Tie the second event's solo crossing to the first's: exactly, or
		// off by a relative 1e-13 (inside tieEps).
		d0, _, _ := c.SingleDelay(evs[0].Pin, dir, evs[0].TT)
		d1, _, _ := c.SingleDelay(evs[1].Pin, dir, evs[1].TT)
		solo := evs[0].Cross + d0
		if rng.Intn(2) == 0 {
			solo *= 1 + 1e-13
		}
		evs[1].Cross = solo - d1
	}
	if k >= 2 && rng.Intn(4) == 0 {
		// One input far ahead of the others: lapsed for last-cause gates.
		evs[rng.Intn(k)].Cross -= 10e-9
	}
	return evs
}

func sameResult(got Result, want *legacyResult) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(got.Delay, want.Delay) && eq(got.OutputCross, want.OutputCross) && eq(got.OutTT, want.OutTT) &&
		got.Dominant == want.Dominant && got.UsedDelay == want.UsedDelay && got.UsedTT == want.UsedTT &&
		eq(got.CorrectionApplied, want.CorrectionApplied)
}

// TestEvaluateMatchesLegacy: the allocation-free kernel returns the old
// evaluator's bits — result and decision trace — on random events, for
// first-cause and last-cause inputs (falling and rising on NAND and NOR
// models), every ablation knob, ties within tieEps, lapsed inputs, and a
// fan-in above the stack bound.
func TestEvaluateMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := []*macromodel.GateModel{
		macromodel.SynthModel("nand", 2),
		macromodel.SynthModel("nand", 3),
		macromodel.SynthModel("nor", 3),
		macromodel.SynthModel("nand", stackFanin+3),
	}
	knobs := []struct {
		name string
		set  func(c *Calculator)
	}{
		{"default", func(*Calculator) {}},
		{"cubic", func(c *Calculator) { c.CubicTables = true }},
		{"naive", func(c *Calculator) { c.NaiveOrdering = true }},
		{"nocorr", func(c *Calculator) { c.DisableCorrection = true }},
		{"dual", func(c *Calculator) { c.Dual = tableDual{c.Model} }},
	}
	compared, multi, wide := 0, 0, 0
	for _, m := range models {
		for _, kn := range knobs {
			c := NewCalculator(m)
			kn.set(c)
			for trial := 0; trial < 400; trial++ {
				dir := waveform.Falling
				if trial%2 == 1 {
					dir = waveform.Rising
				}
				evs := randEvents(rng, c, m.NumInputs, dir)
				got, err := c.Evaluate(evs)
				want, werr := legacyEvaluate(c, evs, nil)
				if (err != nil) != (werr != nil) {
					t.Fatalf("%s/%s: error %v, legacy %v", m.Kind, kn.name, err, werr)
				}
				if err != nil {
					if err.Error() != werr.Error() {
						t.Fatalf("%s/%s: error %q, legacy %q", m.Kind, kn.name, err, werr)
					}
					continue
				}
				if !sameResult(got, want) {
					t.Fatalf("%s%d/%s %v: %+v, legacy %+v (events %+v)", m.Kind, m.NumInputs, kn.name, dir, got, *want, evs)
				}
				gotX, ex, err := c.EvaluateExplain(evs)
				if err != nil {
					t.Fatal(err)
				}
				wantEx := &Explain{}
				if _, err := legacyEvaluate(c, evs, wantEx); err != nil {
					t.Fatal(err)
				}
				if !sameResult(gotX, want) || !reflect.DeepEqual(ex, wantEx) {
					t.Fatalf("%s%d/%s %v: explain diverges from legacy\n got %+v\nwant %+v", m.Kind, m.NumInputs, kn.name, dir, ex, wantEx)
				}
				compared++
				if got.UsedDelay > 1 || got.UsedTT > 1 {
					multi++
				}
				if len(evs) > stackFanin {
					wide++
				}
			}
		}
	}
	if multi < compared/4 || wide == 0 {
		t.Fatalf("sweep too thin: %d compared, %d multi-input, %d above the stack bound", compared, multi, wide)
	}
}

// TestEvaluateErrorsMatchLegacy: the kernel rejects the same bad inputs
// with the same messages (validation order unchanged by the single lookup).
func TestEvaluateErrorsMatchLegacy(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	c := NewCalculator(m)
	bad := [][]InputEvent{
		nil,
		{{Pin: 0, Dir: waveform.Falling, TT: 1e-10}, {Pin: 1, Dir: waveform.Rising, TT: 1e-10}},
		{{Pin: 0, Dir: waveform.Falling, TT: math.NaN()}},
		{{Pin: 0, Dir: waveform.Falling, TT: 1e-10, Cross: math.Inf(1)}},
		{{Pin: 0, Dir: waveform.Falling, TT: 1e-10}, {Pin: 7, Dir: waveform.Falling, TT: 1e-10}},
		{{Pin: 0, Dir: waveform.Falling, TT: 1e-10}, {Pin: 1, Dir: waveform.Falling, TT: -1}},
	}
	for i, evs := range bad {
		_, err := c.Evaluate(evs)
		_, werr := legacyEvaluate(c, evs, nil)
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("case %d: error %v, legacy %v", i, err, werr)
		}
	}
	noDual := *m
	noDual.Duals = nil
	c = NewCalculator(&noDual)
	evs := []InputEvent{{Pin: 0, Dir: waveform.Falling, TT: 1e-10}, {Pin: 1, Dir: waveform.Falling, TT: 1e-10, Cross: 1e-12}}
	_, err := c.Evaluate(evs)
	_, werr := legacyEvaluate(c, evs, nil)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("missing dual model: error %v, legacy %v", err, werr)
	}
}

// TestEvaluateSeesModelEdits: nothing the kernel derives from the model
// (the cached ln-τ nodes included) goes stale when the model changes after
// a Calculator exists — a correction calibrated after the first
// evaluation, an edited dual table and a single-input τ axis edited in
// place all show in the next result, which matches the legacy evaluator
// reading the edited model.
func TestEvaluateSeesModelEdits(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	c := NewCalculator(m)
	evs := []InputEvent{
		{Pin: 0, Dir: waveform.Falling, TT: 210e-12, Cross: 0},
		{Pin: 1, Dir: waveform.Falling, TT: 330e-12, Cross: 25e-12},
	}
	prev, err := c.Evaluate(evs)
	if err != nil {
		t.Fatal(err)
	}
	edits := []struct {
		name string
		edit func()
	}{
		{"correction", func() {
			m.SetCorrection(waveform.Falling, macromodel.Correction{Delay: 9e-12, OutTT: 7e-12})
		}},
		{"dual table", func() {
			for _, d := range m.Duals {
				d.DelayRatio.Fill(func(_, _, x3 float64) (float64, error) { return 0.8 + 0.01*x3, nil })
			}
		}},
		{"single τ axis", func() {
			for _, s := range m.Singles {
				for i := range s.TauAxis {
					s.TauAxis[i] *= 1.21
				}
			}
		}},
	}
	for _, e := range edits {
		e.edit()
		got, err := c.Evaluate(evs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyEvaluate(c, evs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Errorf("after the %s edit: %+v, legacy on the edited model %+v", e.name, got, *want)
		}
		if got == prev {
			t.Errorf("the %s edit did not change the result", e.name)
		}
		prev = got
	}
}
