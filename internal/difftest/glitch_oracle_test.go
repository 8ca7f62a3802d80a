package difftest

// Section-6 pulse-filtering oracles.
//
// Filtering is a commit-time verdict over opposite-edge output pairs, so it
// inherits two engine-level contracts the sweep enforces:
//
//  1. Disabled identity: with filtering off — or on but with no glitch
//     models characterized — the analysis must be bit-identical to the seed
//     path. The feature must be a pure no-op until both the option and the
//     characterization data are present.
//  2. Schedule independence: the verdicts are a function of the committed
//     arrival pairs, not of how the walk was scheduled, so serial and
//     parallel walks and the dense reference walk must agree bit for bit,
//     counters included.
//
// The third oracle leaves the macromodel entirely: it characterizes a real
// nand2 with the spice backend, then checks the engine's filter/propagate
// verdict against direct transient simulation of the runt pulse — the
// ground truth the Section-6 tables abstract.

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/table"
	"repro/internal/vtc"
	"repro/internal/waveform"
)

// TestOracleGlitchDisabledIdentity sweeps every config three ways: filtering
// off (reference), filtering on (counters aggregated for non-vacuity), and —
// after stripping every calculator's glitch models — both off and on again.
// The stripped runs must be bit-identical to the reference: the off path
// must never read glitch data, and the on path must degrade to a no-op
// without it.
func TestOracleGlitchDisabledIdentity(t *testing.T) {
	ctx := context.Background()
	filtered, degraded := 0, 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		off, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: off: %v", cfg.Name, err)
		}
		on, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("%s: on: %v", cfg.Name, err)
		}
		filtered += on.Stats.PulsesFiltered
		degraded += on.Stats.PulsesDegraded

		// SynthModel mints fresh models per library, so this mutation is
		// confined to this config's circuit.
		for _, g := range c.Gates {
			g.Calc.Model.Glitches = nil
		}
		offBare, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: off stripped: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, off), Arrivals(c, offBare), nil); err != nil {
			t.Errorf("%s: filtering-off run read glitch models: %v", cfg.Name, err)
		}
		onBare, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("%s: on stripped: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, off), Arrivals(c, onBare), nil); err != nil {
			t.Errorf("%s: filtering without models diverges from off: %v", cfg.Name, err)
		}
		if onBare.Stats.PulsesFiltered != 0 || onBare.Stats.PulsesDegraded != 0 {
			t.Errorf("%s: stripped run still judged pulses: %+v", cfg.Name, onBare.Stats)
		}
	}
	if filtered == 0 {
		t.Fatal("no pulse filtered across the whole sweep — oracle is vacuous")
	}
	if degraded == 0 {
		t.Fatal("no pulse degraded across the whole sweep — oracle is vacuous")
	}
}

// TestOracleGlitchScheduleIdentity: with filtering on, the serial and
// parallel walks must produce bit-identical arrivals and equal verdict
// counters on every config, and both must match the dense reference walk.
func TestOracleGlitchScheduleIdentity(t *testing.T) {
	ctx := context.Background()
	judged := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		ref, err := runDenseRef(c, evs, cfg.Mode, true)
		if err != nil {
			t.Fatalf("%s: reference: %v", cfg.Name, err)
		}
		p := compile(t, c)
		for _, workers := range []int{1, 8} {
			got, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: workers, PulseFiltering: true})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", cfg.Name, workers, err)
			}
			if err := diffRef(c, got, ref); err != nil {
				t.Errorf("%s: workers=%d diverges from the dense reference: %v", cfg.Name, workers, err)
			}
		}
		judged += ref.stats.PulsesFiltered + ref.stats.PulsesDegraded
	}
	if judged == 0 {
		t.Fatal("no pulse judged across the whole sweep — oracle is vacuous")
	}
}

// ---- spice ground truth -----------------------------------------------------

// glitchRig is the real-spice fixture the verdict oracle runs on: a nand2,
// a nor2 and an inv characterized through the actual transistor-level
// backend, the multi-input gates each carrying a glitch model for the pair
// (fall=pin0, rise=pin1) — the nand's negative-going dip and the nor's
// positive-going bump — plus the live simulators for direct ground-truth
// runs.
type glitchRig struct {
	lib *sta.Library
	sim *macromodel.GateSim // nand2 simulator
	gm  *macromodel.GlitchModel
	th  waveform.Thresholds

	norSim *macromodel.GateSim
	norGM  *macromodel.GlitchModel
	norTh  waveform.Thresholds
}

var (
	rigOnce sync.Once
	rig     *glitchRig
	rigErr  error
)

// glitchGridTaus keeps the table's τ axes tight around the stimulus
// transition times the oracle uses, so interpolation error stays well inside
// the decisive-voltage margin.
var glitchGridTaus = table.LinSpace(100e-12, 600e-12, 3)

func spiceRig(t *testing.T) *glitchRig {
	t.Helper()
	rigOnce.Do(func() {
		lib := sta.NewLibrary()
		r := &glitchRig{}
		for _, spec := range []struct {
			name string
			kind cells.Kind
			n    int
		}{{"nand2", cells.Nand, 2}, {"nor2", cells.Nor, 2}, {"inv", cells.Inv, 1}} {
			cell := cells.MustNew(spec.kind, spec.n, cells.DefaultProcess(), cells.DefaultGeometry())
			fam, err := vtc.Extract(cell, spice.DefaultOptions(), 0.02)
			if err != nil {
				rigErr = err
				return
			}
			sim := macromodel.NewGateSim(cell, spice.DefaultOptions(), fam.Thresholds)
			model, err := macromodel.CharacterizeGate(sim, macromodel.CoarseCharSpec())
			if err != nil {
				rigErr = err
				return
			}
			calc := core.NewCalculator(model)
			if spec.n >= 2 {
				if err := core.CalibrateCorrection(calc, sim); err != nil {
					rigErr = err
					return
				}
				// The nand completes when the falling input trails far
				// behind; the nor when it leads — mirror the swept range so
				// each polarity's completion boundary sits inside its grid.
				seps := table.LinSpace(-600e-12, 1.4e-9, 11)
				if spec.kind == cells.Nor {
					seps = table.LinSpace(-1.4e-9, 600e-12, 11)
				}
				gm, err := sim.CharacterizeGlitch(0, 1, macromodel.GlitchGridSpec{
					TausFall: glitchGridTaus,
					TausRise: glitchGridTaus,
					Seps:     seps,
				})
				if err != nil {
					rigErr = err
					return
				}
				model.Glitches = []*macromodel.GlitchModel{gm}
				if spec.kind == cells.Nor {
					r.norSim, r.norGM, r.norTh = sim, gm, model.Th
				} else {
					r.sim, r.gm, r.th = sim, gm, model.Th
				}
			}
			lib.Add(spec.name, calc)
		}
		r.lib = lib
		rig = r
	})
	if rigErr != nil {
		t.Fatal(rigErr)
	}
	return rig
}

// decisiveMargin is how far (volts) the simulated extreme must sit from the
// completion threshold for the point to count: closer than this, table
// interpolation legitimately lands on either side and the verdict is not a
// model error either way.
const decisiveMargin = 0.2

// spiceSaysFilter runs the ground-truth transient and classifies the pulse:
// filter (the extreme never reaches the completion threshold — Vil for a
// negative-going dip, Vih for a positive-going bump), propagate, or
// indecisive (skip).
func spiceSaysFilter(t *testing.T, sim *macromodel.GateSim, gm *macromodel.GlitchModel, th waveform.Thresholds, ttFall, ttRise, sep float64) (filter, decisive bool) {
	t.Helper()
	extreme, err := sim.RunGlitch(0, 1, ttFall, ttRise, sep)
	if err != nil {
		t.Fatalf("spice glitch run: %v", err)
	}
	level := th.Vil
	if !gm.NegativeGoing {
		level = th.Vih
	}
	if math.Abs(extreme-level) < decisiveMargin {
		return false, false
	}
	if gm.NegativeGoing {
		return extreme > level, true
	}
	return extreme < level, true
}

// TestOracleGlitchSpiceVerdicts sweeps the input separation across the
// characterized inertial delay on a real nand2 and requires the engine's
// filter/propagate verdict to match direct spice simulation at every
// decisive point — with at least one pulse absorbed and one propagated, so
// both verdict classes are exercised against ground truth.
func TestOracleGlitchSpiceVerdicts(t *testing.T) {
	ctx := context.Background()
	r := spiceRig(t)
	const tt = 300e-12
	minSep, ok := r.gm.MinSeparation(tt, tt, r.th)
	if !ok {
		t.Fatal("characterized nand2 never completes a transition in the swept range")
	}

	c := sta.NewCircuit(r.lib)
	a, b := c.Input("a"), c.Input("b")
	x, err := c.AddGate("g1", "nand2", "x", a, b)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.AddGate("g2", "inv", "y", x)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(y)

	p := compile(t, c)
	sawFilter, sawPropagate := 0, 0
	for _, off := range []float64{-250e-12, -120e-12, -40e-12, 40e-12, 150e-12, 400e-12} {
		sep := minSep + off
		if sep < 30e-12 {
			// Near-zero or negative separations flip the output edge order
			// into the positive-runt shape the NAND model does not judge.
			continue
		}
		evs := []sta.PIEvent{
			{Net: b, Dir: waveform.Rising, TT: tt, Time: 0},
			{Net: a, Dir: waveform.Falling, TT: tt, Time: sep},
		}
		res, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("sep %g: analyze: %v", sep, err)
		}
		// Far above the inertial delay the pulse is full-swing and propagates
		// untouched (no counter) — still a propagate verdict.
		engineFilters := res.Stats.PulsesFiltered == 1

		// The engine's verdict must be consistent with what it committed:
		// an absorbed pulse leaves nothing on x or downstream y.
		_, riseOK := res.Arrival(x, waveform.Rising)
		_, fallOK := res.Arrival(x, waveform.Falling)
		if engineFilters && (riseOK || fallOK) {
			t.Fatalf("sep %g: filtered pulse still committed arrivals on x", sep)
		}
		if !engineFilters && !(riseOK && fallOK) {
			t.Fatalf("sep %g: propagated pulse lost an edge on x", sep)
		}
		if _, ok := res.Arrival(y, waveform.Falling); ok == engineFilters {
			t.Fatalf("sep %g: downstream y disagrees with the verdict (filtered=%v)", sep, engineFilters)
		}

		spiceFilters, decisive := spiceSaysFilter(t, r.sim, r.gm, r.th, tt, tt, sep)
		if !decisive {
			t.Logf("sep %g: extreme within %gV of Vil — indecisive, skipped", sep, decisiveMargin)
			continue
		}
		if engineFilters != spiceFilters {
			t.Errorf("sep %g: engine filters=%v but spice ground truth filters=%v", sep, engineFilters, spiceFilters)
		}
		if spiceFilters {
			sawFilter++
		} else {
			sawPropagate++
		}
	}
	if sawFilter == 0 || sawPropagate == 0 {
		t.Fatalf("verdict sweep vacuous: %d filtered, %d propagated decisive points", sawFilter, sawPropagate)
	}
}

// TestOracleGlitchSpiceVerdictsNor is the positive-going mirror of the nand
// sweep: on a real nor2 the bump's falling cause LEADS the rising one, so
// the verdict is judged at negative raw separations (pulse width
// rise − fall). The engine's filter/propagate verdict must match direct
// spice simulation at every decisive point — the polarity the
// NAND-oriented bisection used to absorb at every separation.
func TestOracleGlitchSpiceVerdictsNor(t *testing.T) {
	ctx := context.Background()
	r := spiceRig(t)
	const tt = 300e-12
	if r.norGM.NegativeGoing {
		t.Fatal("characterized nor2 glitch is not positive-going")
	}
	minW, ok := r.norGM.MinSeparation(tt, tt, r.norTh)
	if !ok {
		t.Fatal("characterized nor2 never completes a transition in the swept range")
	}

	c := sta.NewCircuit(r.lib)
	a, b := c.Input("a"), c.Input("b")
	x, err := c.AddGate("g1", "nor2", "x", a, b)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.AddGate("g2", "inv", "y", x)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(y)

	p := compile(t, c)
	sawFilter, sawPropagate := 0, 0
	for _, off := range []float64{-250e-12, -120e-12, -40e-12, 40e-12, 150e-12, 400e-12} {
		width := minW + off
		if width < 30e-12 {
			// Near-zero or negative widths flip the output edge order into
			// the shape the NOR model does not judge.
			continue
		}
		// a (pin 0) falls at 0, b (pin 1) rises at width: raw separation
		// cross(fall) − cross(rise) = −width.
		evs := []sta.PIEvent{
			{Net: a, Dir: waveform.Falling, TT: tt, Time: 0},
			{Net: b, Dir: waveform.Rising, TT: tt, Time: width},
		}
		res, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("width %g: analyze: %v", width, err)
		}
		engineFilters := res.Stats.PulsesFiltered == 1

		ar, riseOK := res.Arrival(x, waveform.Rising)
		af, fallOK := res.Arrival(x, waveform.Falling)
		if engineFilters && (riseOK || fallOK) {
			t.Fatalf("width %g: filtered pulse still committed arrivals on x", width)
		}
		if !engineFilters {
			if !(riseOK && fallOK) {
				t.Fatalf("width %g: propagated pulse lost an edge on x", width)
			}
			if !(ar.Time < af.Time) {
				// The characterized bump needs a rising lead; a flipped pair
				// is a different pulse shape the model leaves untouched.
				t.Logf("width %g: falling edge leads on x — outside the judged polarity, skipped", width)
				continue
			}
		}
		if _, ok := res.Arrival(y, waveform.Falling); ok == engineFilters {
			t.Fatalf("width %g: downstream y disagrees with the verdict (filtered=%v)", width, engineFilters)
		}

		spiceFilters, decisive := spiceSaysFilter(t, r.norSim, r.norGM, r.norTh, tt, tt, -width)
		if !decisive {
			t.Logf("width %g: extreme within %gV of Vih — indecisive, skipped", width, decisiveMargin)
			continue
		}
		if engineFilters != spiceFilters {
			t.Errorf("width %g: engine filters=%v but spice ground truth filters=%v", width, engineFilters, spiceFilters)
		}
		if spiceFilters {
			sawFilter++
		} else {
			sawPropagate++
		}
	}
	if sawFilter == 0 || sawPropagate == 0 {
		t.Fatalf("nor verdict sweep vacuous: %d filtered, %d propagated decisive points", sawFilter, sawPropagate)
	}
}

// TestOracleGlitchSpiceReconvergent drives the runt through topology instead
// of stimulus: one input fans out into a direct path and an inverted path
// that reconverge at a nand2, so the opposite-edge pair's separation is the
// inverter's delay — whatever the engine judges there must match direct
// simulation of the pair it actually committed.
func TestOracleGlitchSpiceReconvergent(t *testing.T) {
	ctx := context.Background()
	r := spiceRig(t)
	c := sta.NewCircuit(r.lib)
	a := c.Input("a")
	n1, err := c.AddGate("g1", "inv", "n1", a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.AddGate("g2", "nand2", "x", n1, a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	p := compile(t, c)
	judged := 0
	for _, tt := range []float64{200e-12, 400e-12} {
		evs := []sta.PIEvent{{Net: a, Dir: waveform.Rising, TT: tt, Time: 0}}
		off, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("tt %g: off: %v", tt, err)
		}
		fall, okF := off.Arrival(n1, waveform.Falling)
		if !okF {
			t.Fatalf("tt %g: inverted path produced no falling arrival", tt)
		}
		on, err := p.Analyze(ctx, evs, sta.Proximity, sta.Options{Workers: 1, PulseFiltering: true})
		if err != nil {
			t.Fatalf("tt %g: on: %v", tt, err)
		}
		if on.Stats.PulsesFiltered+on.Stats.PulsesDegraded != 1 {
			// The reconvergent pair may fall outside the judged polarity for
			// some transition times; the oracle only scores judged cases.
			continue
		}
		judged++
		engineFilters := on.Stats.PulsesFiltered == 1
		// The judged pair on x: n1 (pin0) falls at the inverter's output
		// crossing, a (pin1) rises at 0 — replay exactly that pair in spice.
		spiceFilters, decisive := spiceSaysFilter(t, r.sim, r.gm, r.th, fall.TT, tt, fall.Time)
		if !decisive {
			t.Logf("tt %g: indecisive extreme, skipped", tt)
			continue
		}
		if engineFilters != spiceFilters {
			t.Errorf("tt %g: engine filters=%v but spice ground truth filters=%v (sep %g)",
				tt, engineFilters, spiceFilters, fall.Time)
		}
	}
	if judged == 0 {
		t.Fatal("reconvergent pair never judged — oracle is vacuous")
	}
}
