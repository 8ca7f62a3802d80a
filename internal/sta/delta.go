package sta

// Event-driven delta re-analysis. The proximity model makes every arrival a
// function of which other inputs moved nearby, so what-if sweeps and ECO
// re-timing generate streams of near-duplicate queries: the same netlist,
// the same stimulus vector give or take a handful of primary-input events.
// Re-running the full walk for each is almost entirely redundant — the
// recomputed arrivals are bit-identical to the baseline everywhere the
// perturbation's influence has died out. AnalyzeDelta therefore runs the
// engine's one walk (walk.go) from a clone of the baseline instead of from
// an empty result: it seeds only the edit, and the walk's bit-equal cutoff
// stops wherever a recomputed output matches what the baseline already
// had. Gates the wavefront never reaches keep their baseline arrivals — and
// because evalGate is deterministic over committed arrivals, the result is
// bit-identical to a fresh full analysis of the edited vector (enforced by
// the internal/difftest delta-vs-full oracle).

import (
	"context"
	"fmt"
	"maps"
	"time"

	"repro/internal/obs"
	"repro/internal/waveform"
)

// DeltaRemove names one primary-input event of the baseline to withdraw.
type DeltaRemove struct {
	Net *Net
	Dir waveform.Direction
}

// Delta is a stimulus edit against a baseline result: Remove withdraws
// baseline primary-input events, Set adds or replaces them. Removes apply
// first, so a Set on a removed (net, direction) re-adds it. The equivalent
// full vector is the baseline's events with these edits applied.
type Delta struct {
	Set    []PIEvent
	Remove []DeltaRemove
}

// cloneForDelta copies a result's arrival store and workload counters so
// the walk can update them in place while the baseline stays immutable (and
// reusable as the baseline of further deltas). The pulse state rides along:
// the verdict map and the absorbed pairs' raw shapes are part of what
// "bit-identical to a fresh filtered analysis" means, and the walk mutates
// both in place.
func cloneForDelta(baseline *Result) *Result {
	st := baseline.Stats
	// The walk sets the rest afresh.
	st.Phases, st.Wall = obs.PhaseTimes{}, 0
	return &Result{
		Mode:           baseline.Mode,
		Stats:          st,
		idx:            append([]int32(nil), baseline.idx...),
		arr:            append([]dirArrivals(nil), baseline.arr...),
		handle:         baseline.handle,
		pulseFiltering: baseline.pulseFiltering,
		pulses:         maps.Clone(baseline.pulses),
		pulseRaw:       maps.Clone(baseline.pulseRaw),
	}
}

// AnalyzeDelta re-times a perturbed stimulus vector against a baseline
// result previously produced by this handle (any of Analyze, AnalyzeBatch
// or a prior AnalyzeDelta — delta chains compose). The analysis mode is the
// baseline's, and so is pulse filtering: Options.PulseFiltering must agree
// with how the baseline was produced, and under filtering every re-evaluated
// gate's opposite-edge pair is re-judged (verdicts of untouched gates are
// inherited). Only gates whose input arrivals actually change propagate; the
// returned result is bit-identical to a full analysis of the edited vector —
// arrivals, transition times, PulseInfo records and pulse counters — with
// Stats.GatesReevaluated/GatesReused reporting how much of the baseline
// survived. The baseline must come from this compiled handle — a baseline
// from another handle, such as one compiled before a structural edit, is
// rejected.
func (p *Compiled) AnalyzeDelta(ctx context.Context, baseline *Result, delta Delta, opt Options) (*Result, error) {
	wallStart := time.Now()
	if baseline == nil {
		return nil, fmt.Errorf("sta: delta analysis requires a baseline result")
	}
	if baseline.handle != p.id {
		return nil, fmt.Errorf("sta: baseline was produced by a different compile than this handle (recompiled after a structural edit?) — run a full analysis for a new baseline")
	}
	if len(delta.Set) == 0 && len(delta.Remove) == 0 {
		return nil, fmt.Errorf("sta: empty delta (no events set or removed)")
	}
	// Pulse filtering is inherited from the baseline like the analysis mode
	// is — a delta re-times the same analysis, it cannot change its
	// semantics. Require the option to agree so a caller who thinks they
	// are toggling the filter gets an error, not a silent mismatch.
	if opt.PulseFiltering != baseline.pulseFiltering {
		if baseline.pulseFiltering {
			return nil, fmt.Errorf("sta: delta options: PulseFiltering is off but the baseline was analyzed with it on (a delta cannot change analysis semantics — run a full analysis instead)")
		}
		return nil, fmt.Errorf("sta: delta options: PulseFiltering is on but the baseline was analyzed without it (a delta cannot change analysis semantics — run a full analysis instead)")
	}
	tr := opt.Trace
	deltaSpan := tr.Begin(0, 0, "sta", "delta").
		Arg("set", len(delta.Set)).Arg("remove", len(delta.Remove))
	if id := tr.ID(); id != "" {
		// Same correlation stamp the full-analysis span carries.
		deltaSpan = deltaSpan.Arg("traceId", id)
	}
	defer deltaSpan.End()

	cloneStart := time.Now()
	res := cloneForDelta(baseline)
	res.Stats.Phases.Add(obs.PhaseDelta, time.Since(cloneStart))

	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	// Apply the edit at the primary inputs with the full analysis' own
	// validation. Whether an edited net is dirty is the walk's call: it
	// compares the final seed against the baseline, so a Set that lands
	// bit-equal to what the baseline already had (or a Remove+Set that
	// round-trips) propagates nothing.
	seedStart := time.Now()
	if err := p.seed(res, delta.Set, delta.Remove, s, "delta "); err != nil {
		return nil, err
	}
	// The edited vector must still stimulate something, exactly as a full
	// analysis rejects an empty vector. Any successful Set guarantees it;
	// a remove-only delta needs the scan.
	if len(delta.Set) == 0 && !p.stimulated(res) {
		return nil, fmt.Errorf("sta: delta removes every primary-input event (empty stimulus vector)")
	}
	res.Stats.Phases.Add(obs.PhaseSeed, time.Since(seedStart))

	if err := p.walk(ctx, res, baseline, opt, s, 0); err != nil {
		return nil, err
	}
	res.Stats.Wall = time.Since(wallStart)
	return res, nil
}

// stimulated reports whether any primary input carries an arrival in res.
func (p *Compiled) stimulated(res *Result) bool {
	for _, pi := range p.c.PIs {
		if int(pi.id) >= p.numNets {
			continue
		}
		if da := slotValue(res, pi.id); da.has[0] || da.has[1] {
			return true
		}
	}
	return false
}
