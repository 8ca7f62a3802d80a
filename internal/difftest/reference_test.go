package difftest

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// denseRef is the oracles' reference analysis: the plain levelized walk.
// It visits every gate of every level of Circuit.Levels() in netlist order
// and times each gate with a switching input through the exported per-gate
// calls alone (Calc.Evaluate, Calc.SingleDelay, GateModel.Glitch,
// core.EvaluatePulse) — no consumer table, no change tracking, no cutoff,
// no parallelism. The engine's walk skips every gate without a changed
// input, so agreeing with this reference arrival for arrival and counter
// for counter is what proves the skipping exact.
type denseRef struct {
	arrivals map[ArrivalKey]sta.Arrival
	// stats carries the workload counters only: GatesEvaluated,
	// Evaluations, ProximityEvals, SingleArcEvals and the three Pulses*.
	stats sta.Stats
}

// refPair is one net's arrivals, indexed by direction.
type refPair struct {
	a   [2]sta.Arrival
	has [2]bool
}

var refDirs = [2]waveform.Direction{waveform.Rising, waveform.Falling}

// runDenseRef analyzes one stimulus vector with the dense reference walk;
// filter applies the Section-6 pulse verdict at commit like
// Options.PulseFiltering.
func runDenseRef(c *sta.Circuit, events []sta.PIEvent, mode sta.Mode, filter bool) (*denseRef, error) {
	levels, err := c.Levels()
	if err != nil {
		return nil, err
	}
	store := map[*sta.Net]refPair{}
	for _, ev := range events {
		p := store[ev.Net]
		p.a[ev.Dir] = sta.Arrival{Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
		p.has[ev.Dir] = true
		store[ev.Net] = p
	}
	ref := &denseRef{arrivals: map[ArrivalKey]sta.Arrival{}}
	st := &ref.stats
	for _, level := range levels {
		for _, g := range level {
			var out refPair
			for _, outDir := range refDirs {
				inDir := outDir.Opposite()
				var evs []core.InputEvent
				for pin, in := range g.In {
					if p := store[in]; p.has[inDir] {
						evs = append(evs, core.InputEvent{Pin: pin, Dir: inDir, TT: p.a[inDir].TT, Cross: p.a[inDir].Time})
					}
				}
				if len(evs) == 0 {
					continue
				}
				a, err := refEval(g, evs, outDir, mode)
				if err != nil {
					return nil, fmt.Errorf("gate %s %v output: %w", g.Name, outDir, err)
				}
				out.a[outDir], out.has[outDir] = a, true
				st.Evaluations++
				if a.UsedInputs > 1 {
					st.ProximityEvals++
				} else {
					st.SingleArcEvals++
				}
			}
			if !out.has[0] && !out.has[1] {
				continue
			}
			st.GatesEvaluated++
			if filter && out.has[0] && out.has[1] {
				refPulse(g, &out, store, st)
			}
			if out.has[0] || out.has[1] {
				store[g.Out] = out
			}
		}
	}
	for n, p := range store {
		for _, dir := range refDirs {
			if p.has[dir] {
				ref.arrivals[ArrivalKey{n.Name, dir}] = p.a[dir]
			}
		}
	}
	return ref, nil
}

// refEval times one gate output: Algorithm ProximityDelay over every
// switching input, or the latest single-input arc in Conventional mode.
func refEval(g *sta.Gate, evs []core.InputEvent, outDir waveform.Direction, mode sta.Mode) (sta.Arrival, error) {
	if mode == sta.Conventional {
		best := sta.Arrival{Dir: outDir, Time: math.Inf(-1)}
		for _, e := range evs {
			d, tt, err := g.Calc.SingleDelay(e.Pin, e.Dir, e.TT)
			if err != nil {
				return sta.Arrival{}, err
			}
			if t := e.Cross + d; t > best.Time {
				best = sta.Arrival{Dir: outDir, Time: t, TT: tt, FromGate: g, FromPin: e.Pin, UsedInputs: 1}
			}
		}
		if best.FromGate == nil {
			return sta.Arrival{}, fmt.Errorf("no finite single-arc delay")
		}
		return best, nil
	}
	r, err := g.Calc.Evaluate(evs)
	if err != nil {
		return sta.Arrival{}, err
	}
	return sta.Arrival{Dir: outDir, Time: r.OutputCross, TT: r.OutTT, FromGate: g, FromPin: r.Dominant, UsedInputs: r.UsedDelay}, nil
}

// refPulse judges an opposite-edge output pair against the gate's glitch
// model: absorbed below the pair's inertial delay, leading edge degraded
// above it, counted as unjudged when no model covers the pin pair.
func refPulse(g *sta.Gate, out *refPair, store map[*sta.Net]refPair, st *sta.Stats) {
	ar, af := out.a[waveform.Rising], out.a[waveform.Falling]
	leadDir := waveform.Rising
	if af.Time <= ar.Time {
		leadDir = waveform.Falling
	}
	fallPin, risePin := ar.FromPin, af.FromPin
	gm := g.Calc.Model.Glitch(fallPin, risePin)
	if gm == nil {
		st.PulsesUnjudged++
		return
	}
	if gm.NegativeGoing != (leadDir == waveform.Falling) {
		return
	}
	fallIn, riseIn := store[g.In[fallPin]], store[g.In[risePin]]
	if !fallIn.has[waveform.Falling] || !riseIn.has[waveform.Rising] {
		return
	}
	f, r := fallIn.a[waveform.Falling], riseIn.a[waveform.Rising]
	v, ok := core.EvaluatePulse(g.Calc.Model, fallPin, risePin, f.TT, r.TT, f.Time-r.Time)
	switch {
	case !ok:
	case v.Filtered:
		out.has = [2]bool{}
		st.PulsesFiltered++
	case v.Factor > 1:
		out.a[leadDir].TT *= v.Factor
		st.PulsesDegraded++
	}
}

// diffRef requires an engine result to match the dense reference: every
// arrival bit for bit (Time, TT, UsedInputs, FromPin) and every workload
// counter.
func diffRef(c *sta.Circuit, res *sta.Result, ref *denseRef) error {
	if err := DiffExact(ref.arrivals, Arrivals(c, res), nil); err != nil {
		return err
	}
	got, want := res.Stats, ref.stats
	if got.GatesEvaluated != want.GatesEvaluated || got.Evaluations != want.Evaluations ||
		got.ProximityEvals != want.ProximityEvals || got.SingleArcEvals != want.SingleArcEvals ||
		got.PulsesFiltered != want.PulsesFiltered || got.PulsesDegraded != want.PulsesDegraded ||
		got.PulsesUnjudged != want.PulsesUnjudged {
		return fmt.Errorf("counters diverge (engine vs reference): gatesEvaluated %d/%d evaluations %d/%d proximity %d/%d singleArc %d/%d pulses filtered %d/%d degraded %d/%d unjudged %d/%d",
			got.GatesEvaluated, want.GatesEvaluated, got.Evaluations, want.Evaluations,
			got.ProximityEvals, want.ProximityEvals, got.SingleArcEvals, want.SingleArcEvals,
			got.PulsesFiltered, want.PulsesFiltered, got.PulsesDegraded, want.PulsesDegraded,
			got.PulsesUnjudged, want.PulsesUnjudged)
	}
	return nil
}
