package macromodel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cells"
	"repro/internal/table"
	"repro/internal/waveform"
)

// GlitchModel is the Section-6 macromodel of the gate's extreme output
// voltage when two inputs switch in opposite directions in close proximity.
//
// For a NAND gate with input `FallPin` falling (unblocking the output) and
// input `RisePin` rising (blocking it), the output dips toward ground; the
// model tables the minimum output voltage as a function of
// (τ_fall, τ_rise, s), where s is the separation of the falling input
// measured from the rising input at the thresholds. When the extreme voltage
// crosses Vil the output is deemed to have completed a transition; the
// smallest such separation is the gate's inertial delay for this input pair.
// For NOR gates the glitch is positive-going and compared against Vih.
type GlitchModel struct {
	FallPin int `json:"fallPin"`
	RisePin int `json:"risePin"`
	// NegativeGoing records the glitch polarity: true for NAND-style dips
	// toward ground (extreme = minimum voltage), false for NOR-style
	// bumps toward Vdd (extreme = maximum voltage).
	NegativeGoing bool `json:"negativeGoing"`
	// Extreme tables the extreme output voltage over
	// (τ_fall, τ_rise, s) — all physical, in seconds/volts.
	Extreme *table.Grid `json:"extreme"`
}

// GlitchGridSpec sizes the glitch characterization sweep.
type GlitchGridSpec struct {
	TausFall []float64
	TausRise []float64
	Seps     []float64
	Workers  int
}

// DefaultGlitchGrid covers the Fig. 6-1 sweep ranges.
func DefaultGlitchGrid() GlitchGridSpec {
	return GlitchGridSpec{
		TausFall: table.LogSpace(50e-12, 2e-9, 5),
		TausRise: table.LogSpace(50e-12, 2e-9, 5),
		Seps:     table.LinSpace(-2e-9, 1.5e-9, 29),
	}
}

// RunGlitch simulates one opposite-direction pair and returns the extreme
// output voltage (minimum for NAND-style gates, maximum for NOR).
// s is the threshold-measured crossing time of the falling input minus that
// of the rising input.
func (g *GateSim) RunGlitch(fallPin, risePin int, ttFall, ttRise, s float64) (extreme float64, err error) {
	res, err := g.Run([]PinStim{
		{Pin: risePin, Dir: waveform.Rising, TT: ttRise, Cross: 0},
		{Pin: fallPin, Dir: waveform.Falling, TT: ttFall, Cross: s},
	})
	if err != nil {
		return 0, err
	}
	if g.Cell.Kind == cells.Nor {
		v, _ := res.Out.Max()
		return v, nil
	}
	v, _ := res.Out.Min()
	return v, nil
}

// CharacterizeGlitch fills a GlitchModel for the given opposite-direction
// pair: fallPin falls while risePin rises.
func (g *GateSim) CharacterizeGlitch(fallPin, risePin int, spec GlitchGridSpec) (*GlitchModel, error) {
	if fallPin == risePin {
		return nil, fmt.Errorf("macromodel: glitch pair needs distinct pins")
	}
	if len(spec.TausFall) < 2 || len(spec.TausRise) < 2 || len(spec.Seps) < 2 {
		return nil, fmt.Errorf("macromodel: glitch grid too small")
	}
	grid, err := table.New(spec.TausFall, spec.TausRise, spec.Seps)
	if err != nil {
		return nil, err
	}
	err = parallelFill3(grid, spec.Workers, func(sim *GateSim, tf, tr, s float64) (float64, error) {
		return sim.RunGlitch(fallPin, risePin, tf, tr, s)
	}, g)
	if err != nil {
		return nil, fmt.Errorf("macromodel: glitch characterization: %w", err)
	}
	return &GlitchModel{
		FallPin:       fallPin,
		RisePin:       risePin,
		NegativeGoing: g.Cell.Kind != cells.Nor,
		Extreme:       grid,
	}, nil
}

// ExtremeAt interpolates the extreme output voltage.
func (m *GlitchModel) ExtremeAt(ttFall, ttRise, s float64) float64 {
	return m.Extreme.Eval(ttFall, ttRise, s)
}

// MinSeparation returns the smallest output pulse width at which the output
// still completes a transition past the measurement threshold — the gate's
// inertial delay for this pair. Width is measured as the trailing (blocking)
// cause's threshold crossing minus the leading (unblocking) cause's: for a
// negative-going dip the rising input blocks and the falling input restores,
// so width equals the tabulated separation s = cross(fall) − cross(rise);
// for a positive-going bump the roles mirror and width is −s. Expressing
// both polarities in width terms keeps one comparison direction — the
// output completes exactly when the observed width is at or above the
// returned boundary. The threshold is Vil for negative-going glitches, Vih
// for positive-going. ok is false when no width in the characterized range
// completes the transition; sep is then +Inf, so a caller that ignores ok
// and compares a candidate width against sep still concludes "never
// completes" instead of treating the pair as needing zero separation.
func (m *GlitchModel) MinSeparation(ttFall, ttRise float64, th waveform.Thresholds) (sep float64, ok bool) {
	// The blocking transition (the rising input of a NAND, the mirror for a
	// NOR) cuts the output's excursion short unless the unblocking input
	// leads by enough: completion happens for widths at or above a boundary.
	// (Equivalently, in the paper's phrasing, "when input b comes much
	// earlier than input a, the output completes its falling transition".)
	// The grid's axis is s = cross(fall) − cross(rise), which is w for
	// negative-going models and −w for positive-going ones; in width terms
	// a positive-going axis reverses: w ∈ [−s_max, −s_min]. The transition
	// times are fixed for the whole bisection, so it walks the grid's 1-D
	// slice at (ttFall, ttRise), bit-identical to ExtremeAt at every step.
	sl := m.Extreme.Slice(ttFall, ttRise)
	lo, hi := m.Extreme.Span(2)
	if m.NegativeGoing {
		return sl.Boundary(lo, hi, false, false, th.Vil)
	}
	return sl.Boundary(-hi, -lo, true, true, th.Vih)
}

// parallelFill3 fills a 3-D grid with one simulation per point, cloning the
// prototype GateSim per worker. The first failure stops every worker (not
// just its own) and the feeder, so errors surface promptly.
func parallelFill3(grid *table.Grid, workers int, f func(sim *GateSim, a, b, c float64) (float64, error), proto *GateSim) error {
	ax0, ax1, ax2 := grid.Axis(0), grid.Axis(1), grid.Axis(2)
	type job struct{ i, j, k int }
	jobs := make(chan job)
	if workers <= 0 {
		workers = defaultWorkers()
	}
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		sim := proto.Clone()
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if stop.Load() {
					continue
				}
				v, err := f(sim, ax0[jb.i], ax1[jb.j], ax2[jb.k])
				if err != nil {
					stop.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				grid.Set(v, jb.i, jb.j, jb.k)
			}
		}()
	}
feed:
	for i := range ax0 {
		for j := range ax1 {
			for k := range ax2 {
				if stop.Load() {
					break feed
				}
				jobs <- job{i, j, k}
			}
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}
