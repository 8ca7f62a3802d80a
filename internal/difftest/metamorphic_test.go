package difftest

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sta"
)

// TestTimeShiftEquivariance: the delay model depends on input times only
// through separations, so shifting every primary-input event by Δt must
// shift every arrival by exactly Δt and leave every transition time
// unchanged. Floating point re-associates the additions, so "exactly" is
// checked to a sub-attosecond budget — a millionth of a picosecond, eight
// orders below any physical delay in the model, while a genuine
// equivariance bug shows up at picoseconds.
func TestTimeShiftEquivariance(t *testing.T) {
	ctx := context.Background()
	const tol = 1e-19 // seconds
	shifts := []float64{1e-9, -3.7e-11, 2.5e-10}
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		base, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: base: %v", cfg.Name, err)
		}
		baseArr := Arrivals(c, base)
		for _, dt := range shifts {
			shifted, err := p.Analyze(ctx, ShiftEvents(evs, dt), cfg.Mode, sta.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: shift %g: %v", cfg.Name, dt, err)
			}
			shiftArr := Arrivals(c, shifted)
			if len(shiftArr) != len(baseArr) {
				t.Fatalf("%s: shift %g changed arrival count %d -> %d",
					cfg.Name, dt, len(baseArr), len(shiftArr))
			}
			for k, ba := range baseArr {
				sa, ok := shiftArr[k]
				if !ok {
					t.Fatalf("%s: shift %g lost arrival %s %v", cfg.Name, dt, k.Net, k.Dir)
				}
				if d := math.Abs((sa.Time - dt) - ba.Time); d > tol {
					t.Errorf("%s: net %s %v: shifted arrival off by %g s (shift %g)",
						cfg.Name, k.Net, k.Dir, d, dt)
				}
				if d := math.Abs(sa.TT - ba.TT); d > tol {
					t.Errorf("%s: net %s %v: TT changed by %g s under pure time shift",
						cfg.Name, k.Net, k.Dir, d)
				}
				if sa.UsedInputs != ba.UsedInputs {
					t.Errorf("%s: net %s %v: UsedInputs %d -> %d under pure time shift",
						cfg.Name, k.Net, k.Dir, ba.UsedInputs, sa.UsedInputs)
				}
			}
		}
	}
}

// TestWorkerCountInvariance: the worker budget is a schedule, not a model
// parameter — every worker count must produce the bit-identical result.
func TestWorkerCountInvariance(t *testing.T) {
	ctx := context.Background()
	counts := []int{2, 3, 5, 16}
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		ref, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", cfg.Name, err)
		}
		refArr := Arrivals(c, ref)
		for _, w := range counts {
			res, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", cfg.Name, w, err)
			}
			if err := DiffExact(refArr, Arrivals(c, res), nil); err != nil {
				t.Errorf("%s: workers=%d diverges from serial: %v", cfg.Name, w, err)
			}
		}
	}
}

// TestNetRelabelingConsistency: renaming every net (and gate instance)
// through a permutation is pure labeling — arrivals must be bit-identical
// per mapped net.
func TestNetRelabelingConsistency(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		text, mapping := RenameNets(c, cfg.Seed+7)
		renamed, err := sta.ParseNetlist(strings.NewReader(text), sta.SynthLibrary(3))
		if err != nil {
			t.Fatalf("%s: parse renamed netlist: %v", cfg.Name, err)
		}
		revs, err := RenameEvents(renamed, evs, mapping)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		p := compile(t, c)
		base, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: base: %v", cfg.Name, err)
		}
		renamedP := compile(t, renamed)
		res, err := renamedP.Analyze(ctx, revs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: renamed: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, base), Arrivals(renamed, res), mapping); err != nil {
			t.Errorf("%s: relabeled circuit diverges: %v", cfg.Name, err)
		}
	}
}

// TestEventOrderIndependence: dominance ordering happens inside the
// calculator; the order events are listed in must not matter.
func TestEventOrderIndependence(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		p := compile(t, c)
		ref, err := p.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: base: %v", cfg.Name, err)
		}
		refArr := Arrivals(c, ref)
		for _, seed := range []int64{1, 2, 3} {
			res, err := p.Analyze(ctx, ShuffleEvents(evs, seed), cfg.Mode, sta.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: shuffled %d: %v", cfg.Name, seed, err)
			}
			if err := DiffExact(refArr, Arrivals(c, res), nil); err != nil {
				t.Errorf("%s: shuffle %d diverges: %v", cfg.Name, seed, err)
			}
		}
	}
}
