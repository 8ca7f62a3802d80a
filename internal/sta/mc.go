package sta

// Monte-Carlo statistical timing analysis under process variation. One
// compile and its consumer table are reused across all samples; each sample
// re-times the same stimulus with per-gate delay multipliers drawn from the
// deterministic counter PRNG in internal/mc, so sample k of a run is a pure
// function of (seed, k) — independently reproducible without re-running the
// first k-1 samples, and identical no matter how many workers the loop
// spreads across. Per-output arrival times aggregate into
// mean/std/percentile distributions, and each sample's critical path votes
// into a per-gate criticality report (the probability a gate lies on the
// sample-worst path — the yield-analysis query proximity-aware STA exists
// to answer, since variation reorders input dominance).

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// MCOptions configures one Monte-Carlo analysis.
type MCOptions struct {
	// Samples is the number of Monte-Carlo samples to run (must be > 0).
	Samples int
	// Seed selects the deterministic deviate stream. The same
	// (Seed, Samples, Sigma) triple reproduces the run bit-for-bit.
	Seed uint64
	// Sigma is the per-gate delay-multiplier standard deviation (gate delay
	// scales by 1 + Sigma*N, N standard normal; must be finite and >= 0).
	// Sigma 0 makes every sample bit-identical to a deterministic Analyze.
	Sigma float64
	// Corners names preset global corners (see mc.CornerNames) to evaluate
	// alongside the samples, each a single deterministic analysis with one
	// constant multiplier for every gate.
	Corners []string
	// Bins sets the per-output histogram resolution (<= 0 picks 16).
	Bins int
	// Options carries the execution knobs: Workers bounds the sample-level
	// parallelism (each sample walks serially), and PulseFiltering makes
	// every sample judge its own runt-pulse separations, feeding
	// MCResult.GlitchCriticality. Perturb must be nil — AnalyzeMC owns the
	// perturbation hook.
	Options
}

// OutputDist is one primary output's arrival-time distribution over the
// samples, per transition direction.
type OutputDist struct {
	Net  *Net
	Dir  waveform.Direction
	Dist mc.Dist
}

// GateCriticality reports how often a gate sat on the sample-critical path
// (the traced path to the latest primary-output arrival of that sample).
type GateCriticality struct {
	Gate        *Gate
	Count       int
	Probability float64 // Count / Samples
}

// GateGlitchCriticality reports how often pulse filtering judged a gate's
// opposite-edge output pair across the samples: the probability the pair
// was absorbed outright and the probability it survived with a degraded
// leading edge. Variation moves the pair's separation across the inertial
// boundary, so these probabilities are the glitch risk a single
// deterministic filtered analysis cannot see.
type GateGlitchCriticality struct {
	Gate      *Gate
	Absorbed  int     // samples whose verdict absorbed the pair
	Degraded  int     // samples whose pair survived degraded
	PAbsorbed float64 // Absorbed / Samples
	PDegraded float64 // Degraded / Samples
}

// CornerResult is one named corner's deterministic analysis.
type CornerResult struct {
	Name       string
	Multiplier float64
	Result     *Result
}

// MCResult is the aggregate of a Monte-Carlo analysis. It deliberately does
// not retain the per-sample Results — a million-sample run distills into
// per-output distributions and the criticality vote, O(outputs + gates).
type MCResult struct {
	Mode    Mode
	Samples int
	Seed    uint64
	Sigma   float64
	// Outputs lists each primary output direction that transitioned in at
	// least one sample, in primary-output declaration order (rising before
	// falling per net).
	Outputs []OutputDist
	// Criticality lists every gate that appeared on at least one sample's
	// critical path, most critical first (ties broken by netlist order).
	Criticality []GateCriticality
	// GlitchCriticality lists every gate whose output pair pulse filtering
	// judged (absorbed or degraded) in at least one sample, most judged
	// first (ties broken by netlist order). Empty unless
	// Options.PulseFiltering was on.
	GlitchCriticality []GateGlitchCriticality
	// Corners holds the requested corner runs, in request order.
	Corners []CornerResult
	// Stats aggregates over all samples: the evaluation counters are sums,
	// Wall is the whole MC call, and Phases charges the sample loop plus
	// aggregation to obs.PhaseMC (sample-interior phases are not broken
	// out — they are interior to the MC bucket).
	Stats Stats
}

// mcOutputs returns the primary outputs that can transition under this
// stimulus, in declaration order: one search over the consumer CSR from
// the stimulated nets. Events propagate only through the stimulated PIs'
// fanout, and perturbation scales delays without ever reaching further —
// so a PO outside it is a guaranteed-NaN column in every sample, and
// aggregating it would make the per-sample cost scale with the netlist's PO
// count instead of the stimulated fanout's. Events the samples will reject
// (unknown or post-compile nets) are skipped here.
func (p *Compiled) mcOutputs(events []PIEvent) []*Net {
	from := make([]*Net, 0, len(events))
	reached := make([]bool, p.numNets)
	for _, ev := range events {
		if ev.Net != nil && int(ev.Net.id) < p.numNets {
			from = append(from, ev.Net)
			reached[ev.Net.id] = true
		}
	}
	for _, gi := range p.reach(from) {
		reached[p.gateList[gi].Out.id] = true
	}
	var pos []*Net
	for _, po := range p.c.POs {
		if int(po.id) < p.numNets && reached[po.id] {
			pos = append(pos, po)
		}
	}
	return pos
}

// An mcWorker runs samples of one vector, one after another, through one
// recycled Result. Each sample resets it in place (Result.reset) and seeds
// the vector again, so a sample allocates nothing and costs what its cone
// costs. The Result must never leave its sample: the sample's arrivals go
// into the slab, and its verdicts and critical path into the votes, before
// the next sample resets it.
type mcWorker struct {
	p      *Compiled
	events []PIEvent
	res    *Result
	opt    Options // the samples' options: a serial walk, Perturb bound once
	seed   uint64
	sigma  float64
	si     int // the sample being run, whose deviates multiplier draws
}

func (p *Compiled) newMCWorker(events []PIEvent, mode Mode, opt MCOptions) *mcWorker {
	w := &mcWorker{
		p:      p,
		events: events,
		res:    p.newResult(mode, opt.PulseFiltering, len(events)),
		opt:    Options{Workers: 1, PulseFiltering: opt.PulseFiltering},
		seed:   opt.Seed,
		sigma:  opt.Sigma,
	}
	if opt.Sigma != 0 {
		w.opt.Perturb = w.multiplier
	}
	return w
}

// multiplier is the perturbation hook of the worker's current sample: a
// pure function of (seed, sample, gate), so any sample is reproducible in
// isolation.
func (w *mcWorker) multiplier(gi int32) float64 {
	return mc.Multiplier(w.seed, w.si, w.sigma, gi)
}

// check validates the vector the way every sample's seed would, by seeding
// it into the worker's result without walking it.
func (w *mcWorker) check() error {
	if len(w.events) == 0 {
		return errEmptyVector
	}
	s := w.p.scratch.Get().(*evalScratch)
	defer w.p.scratch.Put(s)
	return w.p.seed(w.res, w.events, nil, s, "")
}

// sample analyzes sample si into the worker's result and returns it, valid
// until the worker's next sample.
func (w *mcWorker) sample(ctx context.Context, si int) (*Result, error) {
	w.si = si
	w.res.reset(w.events)
	if err := w.p.analyzeInto(ctx, w.res, w.events, w.opt, int64(si)); err != nil {
		return nil, err
	}
	return w.res, nil
}

// AnalyzeMC runs a Monte-Carlo analysis of one stimulus vector over the
// precompiled schedule. Samples run in parallel across the worker budget;
// results are bit-identical at every worker count (aggregation happens in
// sample order after the barrier, and every deviate is a pure function of
// (seed, sample, gate)). The context is polled inside every sample at level
// boundaries and between samples.
func (p *Compiled) AnalyzeMC(ctx context.Context, events []PIEvent, mode Mode, opt MCOptions) (*MCResult, error) {
	wallStart := time.Now()
	if err := mc.ValidateSpec(opt.Samples, opt.Sigma); err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	if opt.Perturb != nil {
		return nil, fmt.Errorf("sta: mc options: Perturb must be nil (AnalyzeMC owns the perturbation hook)")
	}
	// Resolve corner names before spending any sample work.
	cornerMults := make([]float64, len(opt.Corners))
	for i, name := range opt.Corners {
		m, err := mc.CornerMultiplier(name)
		if err != nil {
			return nil, fmt.Errorf("sta: %w", err)
		}
		cornerMults[i] = m
	}
	// Every sample seeds the same vector, so a vector one sample rejects
	// they all reject. Check it once, before anything sized by the sample
	// count is allocated, under the name of the sample that would have
	// reported it.
	first := p.newMCWorker(events, mode, opt)
	if err := first.check(); err != nil {
		return nil, fmt.Errorf("sta: mc sample 0: %w", err)
	}

	// The aggregation axes: primary outputs that can actually transition
	// under this stimulus. Restricting them up front keeps the per-sample
	// slab and the PO scan proportional to the stimulated cone, not the
	// netlist.
	pos := p.mcOutputs(events)

	mcStart := time.Now()
	// Per-sample arrival slab, indexed [sample][output][direction]. NaN
	// marks "did not transition in this sample"; aggregation drops NaNs.
	stride := 2 * len(pos)
	slab := make([]float64, opt.Samples*stride)
	for i := range slab {
		slab[i] = math.NaN()
	}
	critCount := make([]int64, p.gates)
	// vote counts one step of a sample's critical path.
	vote := func(_ *Net, a Arrival) {
		if g := a.FromGate; g != nil {
			atomic.AddInt64(&critCount[g.idx], 1)
		}
	}
	var gatesEvaluated, evaluations, proximityEvals, singleArcEvals, gatesScheduled atomic.Int64
	var pulsesFiltered, pulsesDegraded, pulsesUnjudged atomic.Int64

	// Glitch-criticality votes, indexed by gate. The per-sample verdicts
	// live in a map keyed by output net ID, so a net-ID -> gate-index table
	// turns each into a vote; map iteration order does not matter because
	// the counters only ever accumulate.
	var glitchAbsorbed, glitchDegraded []int64
	var outGate []int32
	if opt.PulseFiltering {
		glitchAbsorbed = make([]int64, p.gates)
		glitchDegraded = make([]int64, p.gates)
		outGate = make([]int32, p.numNets)
		for i := range outGate {
			outGate[i] = -1
		}
		for gi, g := range p.gateList {
			if int(g.Out.id) < p.numNets {
				outGate[g.Out.id] = int32(gi)
			}
		}
	}

	runSample := func(w *mcWorker, si int) error {
		res, err := w.sample(ctx, si)
		if err != nil {
			return err
		}
		gatesEvaluated.Add(int64(res.Stats.GatesEvaluated))
		evaluations.Add(int64(res.Stats.Evaluations))
		proximityEvals.Add(int64(res.Stats.ProximityEvals))
		singleArcEvals.Add(int64(res.Stats.SingleArcEvals))
		gatesScheduled.Add(int64(res.Stats.GatesScheduled))
		pulsesFiltered.Add(int64(res.Stats.PulsesFiltered))
		pulsesDegraded.Add(int64(res.Stats.PulsesDegraded))
		pulsesUnjudged.Add(int64(res.Stats.PulsesUnjudged))
		if opt.PulseFiltering {
			for netID, pi := range res.pulses {
				gi := outGate[netID]
				if gi < 0 {
					continue
				}
				switch {
				case pi.Filtered:
					atomic.AddInt64(&glitchAbsorbed[gi], 1)
				case pi.Unjudged:
					// An unjudged pair is a blind spot, not a verdict — it
					// counts in Stats.PulsesUnjudged, not in the criticality
					// vote.
				default:
					atomic.AddInt64(&glitchDegraded[gi], 1)
				}
			}
		}

		base := si * stride
		worst := math.Inf(-1)
		var worstNet *Net
		var worstDir waveform.Direction
		found := false
		for k, po := range pos {
			for _, dir := range bothDirs {
				if a, ok := res.Arrival(po, dir); ok {
					slab[base+2*k+int(dir)] = a.Time
					if !found || a.Time > worst {
						worst, worstNet, worstDir, found = a.Time, po, dir, true
					}
				}
			}
		}
		if found {
			if err := res.tracePath(worstNet, worstDir, vote); err != nil {
				return fmt.Errorf("sample %d criticality trace: %w", si, err)
			}
		}
		return nil
	}

	// One worker, and so one recycled result, per goroutine.
	workers := workerCount(opt.Workers, opt.Samples)
	ws := []*mcWorker{first}
	for len(ws) < workers {
		ws = append(ws, p.newMCWorker(events, mode, opt))
	}
	if si, err := runEach(opt.Samples, workers, func(w, si int) error {
		return runSample(ws[w], si)
	}); err != nil {
		return nil, fmt.Errorf("sta: mc sample %d: %w", si, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sta: mc analysis interrupted: %w", err)
	}

	out := &MCResult{Mode: mode, Samples: opt.Samples, Seed: opt.Seed, Sigma: opt.Sigma}

	// Aggregate in (output, direction, sample) order — serial, so the
	// result is independent of which worker produced which sample.
	column := make([]float64, opt.Samples)
	for k, po := range pos {
		for _, dir := range bothDirs {
			for si := 0; si < opt.Samples; si++ {
				column[si] = slab[si*stride+2*k+int(dir)]
			}
			d := mc.NewDist(column, opt.Bins)
			if d.N == 0 {
				continue // this output never transitions that way
			}
			out.Outputs = append(out.Outputs, OutputDist{Net: po, Dir: dir, Dist: d})
		}
	}
	for gi, n := range critCount {
		if n > 0 {
			out.Criticality = append(out.Criticality, GateCriticality{
				Gate:        p.gateList[gi],
				Count:       int(n),
				Probability: float64(n) / float64(opt.Samples),
			})
		}
	}
	sort.SliceStable(out.Criticality, func(i, j int) bool {
		return out.Criticality[i].Count > out.Criticality[j].Count
	})
	if opt.PulseFiltering {
		for gi := range glitchAbsorbed {
			abs, deg := glitchAbsorbed[gi], glitchDegraded[gi]
			if abs == 0 && deg == 0 {
				continue
			}
			out.GlitchCriticality = append(out.GlitchCriticality, GateGlitchCriticality{
				Gate:      p.gateList[gi],
				Absorbed:  int(abs),
				Degraded:  int(deg),
				PAbsorbed: float64(abs) / float64(opt.Samples),
				PDegraded: float64(deg) / float64(opt.Samples),
			})
		}
		sort.SliceStable(out.GlitchCriticality, func(i, j int) bool {
			return out.GlitchCriticality[i].Absorbed+out.GlitchCriticality[i].Degraded >
				out.GlitchCriticality[j].Absorbed+out.GlitchCriticality[j].Degraded
		})
	}

	// Corner presets: degenerate one-sample runs with a constant global
	// multiplier (the typ corner's 1.0 takes the unperturbed hot path).
	for i, name := range opt.Corners {
		pv := Options{Workers: opt.Workers, PulseFiltering: opt.PulseFiltering}
		if cornerMults[i] != 1 {
			m := cornerMults[i]
			pv.Perturb = func(int32) float64 { return m }
		}
		res, err := p.analyze(ctx, events, mode, pv, int64(opt.Samples+i))
		if err != nil {
			return nil, fmt.Errorf("sta: corner %s: %w", name, err)
		}
		out.Corners = append(out.Corners, CornerResult{Name: name, Multiplier: cornerMults[i], Result: res})
	}

	out.Stats.Workers = workers
	out.Stats.Levels = len(p.levels)
	out.Stats.GatesEvaluated = int(gatesEvaluated.Load())
	out.Stats.Evaluations = int(evaluations.Load())
	out.Stats.ProximityEvals = int(proximityEvals.Load())
	out.Stats.SingleArcEvals = int(singleArcEvals.Load())
	out.Stats.GatesScheduled = int(gatesScheduled.Load())
	out.Stats.PulsesFiltered = int(pulsesFiltered.Load())
	out.Stats.PulsesDegraded = int(pulsesDegraded.Load())
	out.Stats.PulsesUnjudged = int(pulsesUnjudged.Load())
	out.Stats.Phases.Add(obs.PhaseMC, time.Since(mcStart))
	out.Stats.Wall = time.Since(wallStart)
	return out, nil
}
