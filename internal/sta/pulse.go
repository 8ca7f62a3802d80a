package sta

import (
	"math"

	"repro/internal/core"
	"repro/internal/waveform"
)

// PulseInfo records the Section-6 verdict applied to one gate output whose
// analysis produced BOTH transition directions — an opposite-edge pair, the
// engine's signature of a runt pulse. Judged pairs (absorbed or degraded)
// leave a record, as do pairs the library could not judge at all (no glitch
// model for the causing pin pair — Unjudged). Pairs a characterized model
// passes through untouched (full-swing, or polarity mismatch against the
// characterized glitch shape) do not.
type PulseInfo struct {
	// FallPin and RisePin are the causing input pins of the absorbed pair:
	// the falling input that produced the rising output edge and the rising
	// input that produced the falling output edge.
	FallPin int
	RisePin int
	// LeadDir is the direction of the leading (earlier) output edge.
	LeadDir waveform.Direction
	// Sep is the pair's output pulse width: the trailing (blocking) cause's
	// crossing measured from the leading (unblocking) cause's — fall − rise
	// for a negative-going dip, rise − fall for a positive-going bump.
	// MinSep is the pair's inertial delay at the observed transition times,
	// in the same orientation, so Sep − MinSep is the completion margin for
	// either polarity (+Inf with MinSepOK=false when no width in the
	// characterized range completes a transition).
	Sep      float64
	MinSep   float64
	MinSepOK bool
	// Extreme is the interpolated extreme output voltage (meaningful only
	// for surviving, degraded pulses).
	Extreme float64
	// Factor is the transition-time degradation applied to the leading
	// output edge (1 for filtered pulses — nothing propagated to degrade).
	Factor float64
	// Filtered reports the pulse was absorbed: neither output arrival
	// committed.
	Filtered bool
	// Unjudged reports the pair had the runt-pulse shape but no glitch
	// model exists for (FallPin, RisePin), so it propagated untouched with
	// Factor 1 and Sep holding the observed output pulse width. The
	// canonical producer is multi-level chaining: a surviving degraded
	// pulse arrives downstream as an opposite-edge pair on a single input
	// pin, and Glitch(p, p) is never characterized.
	Unjudged bool
}

// Pulse returns the Section-6 verdict recorded for a net's driving gate, if
// pulse filtering judged an opposite-edge pair there.
func (r *Result) Pulse(n *Net) (PulseInfo, bool) {
	if n == nil || r.pulses == nil {
		return PulseInfo{}, false
	}
	pi, ok := r.pulses[n.id]
	return pi, ok
}

// PulseFiltering reports whether this result was produced with
// Options.PulseFiltering enabled.
func (r *Result) PulseFiltering() bool { return r.pulseFiltering }

// applyPulseFilter judges one gate's freshly evaluated output pair against
// the Section-6 inertial-delay macromodel, mutating o in place: a filtered
// pulse clears both arrivals, a surviving-but-degraded pulse scales the
// leading edge's transition time. It runs at commit time — the gate's input
// arrivals are committed at earlier levels, so the pair's separation and
// transition times read directly from res, and the verdict is recorded on
// res for Stats and for Explain's filter-aware re-run.
func applyPulseFilter(g *Gate, o *gateEval, res *Result) {
	if !o.has[waveform.Rising] || !o.has[waveform.Falling] {
		return
	}
	ar := o.a[waveform.Rising]
	af := o.a[waveform.Falling]
	leadDir := waveform.Rising
	if af.Time <= ar.Time {
		leadDir = waveform.Falling
	}
	// All library gates invert: the rising output edge is caused by a
	// falling input, the falling output edge by a rising input.
	fallPin, risePin := ar.FromPin, af.FromPin
	m := g.Calc.Model
	gm := m.Glitch(fallPin, risePin)
	if gm == nil {
		// Pair not characterized: the pulse propagates untouched, but not
		// silently — count it and record the pin pair so Explain can name
		// the blind spot. Sep here is the observed output pulse width
		// (trailing edge minus leading edge); there is no model to supply a
		// MinSep, and Factor 1 keeps Explain's filter-aware re-run exact.
		res.Stats.PulsesUnjudged++
		res.setPulse(g.Out.id, PulseInfo{
			FallPin:  fallPin,
			RisePin:  risePin,
			LeadDir:  leadDir,
			Sep:      math.Abs(af.Time - ar.Time),
			Factor:   1,
			Unjudged: true,
		})
		return
	}
	// The characterized glitch has a polarity: a negative-going dip is an
	// output that falls first and recovers, so the falling edge must lead.
	if gm.NegativeGoing != (leadDir == waveform.Falling) {
		return
	}
	fallIn, okF := res.Arrival(g.In[fallPin], waveform.Falling)
	riseIn, okR := res.Arrival(g.In[risePin], waveform.Rising)
	if !okF || !okR {
		return // causing inputs not in the store (defensive; cannot judge)
	}
	v, ok := core.EvaluatePulse(m, fallPin, risePin, fallIn.TT, riseIn.TT, fallIn.Time-riseIn.Time)
	if !ok {
		return
	}
	switch {
	case v.Filtered:
		// Keep the pre-clear shape: delta re-analysis reconstructs the
		// absorbed gate's evaluation counters from it when an edit
		// resurrects or re-judges the pair.
		if res.pulseRaw == nil {
			res.pulseRaw = map[int32]dirArrivals{}
		}
		res.pulseRaw[g.Out.id] = dirArrivals{a: o.a, has: o.has}
		// Clear the values with the flags: the store keeps
		// has[d] == false => a[d] == Arrival{}, so an absorbed pair compares
		// bit-equal to "no arrivals" and the walk's cutoff stops here.
		*o = gateEval{}
		res.Stats.PulsesFiltered++
	case v.Factor > 1:
		o.a[leadDir].TT *= v.Factor
		res.Stats.PulsesDegraded++
	default:
		return // full-swing pulse: propagate untouched, no record
	}
	res.setPulse(g.Out.id, PulseInfo{
		FallPin:  fallPin,
		RisePin:  risePin,
		LeadDir:  leadDir,
		Sep:      v.Sep,
		MinSep:   v.MinSep,
		MinSepOK: v.MinSepOK,
		Extreme:  v.Extreme,
		Factor:   v.Factor,
		Filtered: v.Filtered,
	})
}

// setPulse records a verdict for an output net.
func (r *Result) setPulse(netID int32, pi PulseInfo) {
	if r.pulses == nil {
		r.pulses = map[int32]PulseInfo{}
	}
	r.pulses[netID] = pi
}

// dropPulse withdraws a previously recorded verdict for an output net,
// reversing its Stats contribution and clearing the absorbed pair's raw
// shape. The delta walk calls it before re-judging a re-evaluated gate, so
// applyPulseFilter can re-record from a clean slate; a gate whose verdict is
// unchanged nets out to zero.
func (r *Result) dropPulse(netID int32) {
	pi, ok := r.pulses[netID]
	if !ok {
		return
	}
	switch {
	case pi.Filtered:
		r.Stats.PulsesFiltered--
		delete(r.pulseRaw, netID)
	case pi.Unjudged:
		r.Stats.PulsesUnjudged--
	default:
		r.Stats.PulsesDegraded--
	}
	delete(r.pulses, netID)
}
