package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/table"
	"repro/internal/waveform"
)

// ---- spans ---------------------------------------------------------------

// span is one recorded interval: a call the benchmark made into a layer, or
// stad's own account of a request (its wide event), joined to the client
// span that caused it.
type span struct {
	name, layer string
	start, end  time.Time
	parent      int   // index into tracer.spans; -1 for a root
	pid         int64 // 1 = the benchmark, 2 = stad
	args        map[string]any
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced measurement passes nil.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Now(), parent: parent, pid: 1})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i (the innermost open one) with key/value counts taken
// at the same boundary.
func (t *tracer) end(i int, kv ...any) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = time.Now()
	for j := 0; j+1 < len(kv); j += 2 {
		if s.args == nil {
			s.args = map[string]any{}
		}
		s.args[kv[j].(string)] = kv[j+1]
	}
	t.open = t.open[:len(t.open)-1]
}

// join records stad's view of a request as a child of the client span,
// clamped into it (the two clocks are the same wall clock, read at
// different instants).
func (t *tracer) join(parent int, name string, start time.Time, wall time.Duration, args map[string]any) {
	p := t.spans[parent]
	if start.Before(p.start) {
		start = p.start
	}
	end := start.Add(wall)
	if end.After(p.end) {
		end = p.end
	}
	t.spans = append(t.spans, span{name: name, layer: "service", start: start, end: end, parent: parent, pid: 2, args: args})
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// self returns each span's duration minus the time its children cover.
func (t *tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		out[i] += t.spans[i].dur()
		if p := t.spans[i].parent; p >= 0 {
			out[p] -= t.spans[i].dur()
		}
	}
	return out
}

// chrome renders the spans as a Chrome trace_event document and checks it
// with the validator cmd/sta -validate-trace uses.
func (t *tracer) chrome() ([]byte, error) {
	evs := []obs.TraceEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "stadbench"}},
		{Name: "process_name", Ph: "M", PID: 2, Args: map[string]any{"name": "stad"}},
	}
	us := func(d time.Duration) float64 { return math.Round(float64(d)/float64(time.Microsecond)*1000) / 1000 }
	for _, s := range t.spans {
		evs = append(evs, obs.TraceEvent{
			Name: s.name, Cat: s.layer, Ph: "X", PID: s.pid, TID: 1,
			TS: us(s.start.Sub(t.t0)), Dur: us(s.dur()), Args: s.args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return nil, err
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		return nil, err
	}
	return data, nil
}

// ---- in-process replay ---------------------------------------------------

// replayed is one request's engine work re-run in-process at stad's
// options, with the counts taken at the same call boundaries.
type replayed struct {
	phases obs.PhaseTimes // summed over the request's analyses
	stats  sta.Stats      // counters summed over the request's analyses
	// useful/tried is the scheduler's yield: gates that produced an arrival
	// per gate scheduled for full analyses; gates whose output actually
	// changed per gate re-evaluated for a delta.
	useful, tried int
	// results are the analyses whose gate inputs the core replay rebuilds,
	// restricted to gates (nil = every gate).
	results []*sta.Result
	gates   []*sta.Gate
	// held are results referenced nowhere else, dropped to measure the heap
	// one Result of this workload holds.
	held []*sta.Result
	// mc is the Monte-Carlo aggregate and columns its per-output sample
	// arrivals as AnalyzeMC aggregates them (NaN = no transition).
	mc      *sta.MCResult
	columns [][]float64
	cone    []int32 // gates the Monte-Carlo samples draw multipliers for
}

func (r *replayed) addStats(st *sta.Stats) {
	for _, p := range obs.Phases() {
		r.phases.Add(p, st.Phases[p])
	}
	r.stats.GatesScheduled += st.GatesScheduled
	r.stats.GatesEvaluated += st.GatesEvaluated
	r.stats.GatesReevaluated += st.GatesReevaluated
	r.stats.Evaluations += st.Evaluations
	r.stats.ProximityEvals += st.ProximityEvals
	r.stats.PulsesFiltered += st.PulsesFiltered
	r.stats.PulsesDegraded += st.PulsesDegraded
	r.stats.PulsesUnjudged += st.PulsesUnjudged
}

func (w *sweepFull) replay(k int, tr *tracer) (*replayed, error) {
	vecs := w.resolved(k)
	sp := tr.begin("sta", "sta.Compiled.AnalyzeBatch")
	results, err := w.fx.compiled.AnalyzeBatch(context.Background(), vecs, sta.Proximity, stadOptions)
	if err != nil {
		return nil, err
	}
	r := &replayed{results: results, held: results}
	for _, res := range results {
		r.addStats(&res.Stats)
		r.useful += res.Stats.GatesEvaluated
		r.tried += res.Stats.GatesScheduled
	}
	tr.end(sp, "vectors", len(vecs), "gatesEvaluated", r.stats.GatesEvaluated)
	return r, nil
}

func (w *ecoInteractive) replay(k int, tr *tracer) (*replayed, error) {
	ctx := context.Background()
	if w.replayBase == nil {
		// The daemon's baseline before request k is the first vector with
		// every earlier kept edit applied; a full analysis of it is
		// bit-identical to the delta chain that produced it.
		w.replayVec = w.fx.resolve(w.base)
		for _, e := range w.edits[:k-1] {
			if e.keep {
				w.replayVec[e.pi] = w.fx.resolve([]service.Event{e.ev})[0]
			}
		}
		sp := tr.begin("sta", "sta.Compiled.Analyze baseline")
		base, err := w.fx.compiled.Analyze(ctx, w.replayVec, sta.Proximity, stadOptions)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		w.replayBase = base
	}
	e := w.edits[k-1]
	ev := w.fx.resolve([]service.Event{e.ev})[0]
	sp := tr.begin("sta", "sta.Compiled.AnalyzeDelta")
	res, err := w.fx.compiled.AnalyzeDelta(ctx, w.replayBase, sta.Delta{Set: []sta.PIEvent{ev}}, stadOptions)
	if err != nil {
		return nil, err
	}
	tr.end(sp, "gatesReevaluated", res.Stats.GatesReevaluated)
	r := &replayed{results: []*sta.Result{res}}
	r.addStats(&res.Stats)
	r.tried = res.Stats.GatesReevaluated
	for _, g := range w.fx.circuit.Gates {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			a, okA := res.Arrival(g.Out, dir)
			b, okB := w.replayBase.Arrival(g.Out, dir)
			if okA != okB || a.Time != b.Time || a.TT != b.TT {
				r.useful++
				break
			}
		}
	}
	cone, _ := w.fx.compiled.Cone(ev.Net)
	for _, gi := range cone {
		r.gates = append(r.gates, w.fx.circuit.Gates[gi])
	}
	if e.keep {
		w.replayBase = res
		w.replayVec[e.pi] = ev
	} else {
		r.held = r.results
	}
	return r, nil
}

// mcReplaySamples bounds how many per-sample Results the core replay keeps.
const mcReplaySamples = 8

func (w *mcGlitch) replay(k int, tr *tracer) (*replayed, error) {
	ctx := context.Background()
	vec, opt := w.spec(k)
	evs := w.fx.resolve(vec)
	sp := tr.begin("sta", "sta.Compiled.AnalyzeMC")
	res, err := w.fx.compiled.AnalyzeMC(ctx, evs, sta.Proximity, opt)
	if err != nil {
		return nil, err
	}
	tr.end(sp, "samples", res.Samples, "pulsesJudged", res.Stats.PulsesFiltered+res.Stats.PulsesDegraded)
	r := &replayed{mc: res}
	r.phases.Add(obs.PhaseMC, res.Stats.Phases[obs.PhaseMC])
	st := res.Stats
	st.Phases = obs.PhaseTimes{}
	r.addStats(&st)
	// The sample-interior phases are not broken out by AnalyzeMC; re-run
	// each sample as AnalyzeMC does (one worker, the counter-PRNG
	// multipliers) and sum them.
	r.columns = make([][]float64, len(res.Outputs))
	for i := range r.columns {
		r.columns[i] = make([]float64, opt.Samples)
	}
	sp = tr.begin("sta", "replay samples")
	for si := 0; si < opt.Samples; si++ {
		pv := sta.Options{Workers: 1, PulseFiltering: true, Perturb: func(gi int32) float64 {
			return mc.Multiplier(opt.Seed, si, opt.Sigma, gi)
		}}
		s, err := w.fx.compiled.Analyze(ctx, evs, sta.Proximity, pv)
		if err != nil {
			return nil, err
		}
		for _, p := range []obs.Phase{obs.PhaseSchedule, obs.PhaseSeed, obs.PhaseEval, obs.PhaseCommit, obs.PhaseGlitch} {
			r.phases.Add(p, s.Stats.Phases[p])
		}
		r.useful += s.Stats.GatesEvaluated
		r.tried += s.Stats.GatesScheduled
		for i, od := range res.Outputs {
			r.columns[i][si] = math.NaN()
			if a, ok := s.Arrival(od.Net, od.Dir); ok {
				r.columns[i][si] = a.Time
			}
		}
		if si < mcReplaySamples {
			r.results = append(r.results, s)
		}
	}
	tr.end(sp, "samples", opt.Samples)
	r.held = r.results
	seen := map[int32]bool{}
	for _, ev := range evs {
		cone, _ := w.fx.compiled.Cone(ev.Net)
		for _, gi := range cone {
			if !seen[gi] {
				seen[gi] = true
				r.cone = append(r.cone, gi)
			}
		}
	}
	return r, nil
}

// ---- the traced run ------------------------------------------------------

// replayRequests is how many of the session's requests the traced run
// re-runs in-process.
const replayRequests = 4

// tracedRun measures the per-layer metrics (see the package comment).
func tracedRun(bin string, fx *fixture, w workload, dur time.Duration, tracePath string) ([]metric, *session, error) {
	tr := newTracer()
	s := &session{}
	var ms []metric
	add := func(name, unit string, v float64, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, note: note})
	}

	setup, err := setupLayers(fx, tr)
	if err != nil {
		return nil, s, err
	}

	d, _, err := s.coldStart(bin, fx, w, tr)
	if err != nil {
		return nil, s, err
	}
	defer d.stop()
	if err := s.warm(d, w); err != nil {
		return nil, s, err
	}
	// Requests alternate: even ones go out plain, odd ones carry trace
	// context and get a client span, joined by trace id to stad's wide
	// event for the same request. Alternating keeps the plain and the traced
	// requests on the same mix of inputs and the same host moments, so their
	// p50 ratio is the tracing overhead.
	type served struct {
		server, engine time.Duration
		size           int
	}
	var reqs []served
	var plainMs, tracedMs []float64
	var clientSpans []int
	var wideErr error
	var open int
	tag := fmt.Sprintf("%016x", uint64(derive(fx.seed, 99)))
	hdr := func(k int) http.Header {
		if k%2 == 0 {
			return nil
		}
		open = tr.begin("service", "client request")
		return http.Header{
			"X-Request-Id": {fmt.Sprintf("stadbench-%s-%d", tag, k)},
			"Traceparent":  {fmt.Sprintf("00-%s%016x-%016x-01", tag, k+1, k+1)},
		}
	}
	workers := min(runtime.NumCPU(), 16) // stad's default worker budget
	after := func(k int, lat time.Duration, size int) {
		if k%2 == 0 {
			plainMs = append(plainMs, float64(lat)/1e6)
			return
		}
		tracedMs = append(tracedMs, float64(lat)/1e6)
		tr.end(open, "bytes", size)
		var rec struct {
			Request obs.WideEvent `json:"request"`
		}
		if err := d.getJSON(fmt.Sprintf("/v1/debug/requests/stadbench-%s-%d", tag, k), &rec); err != nil {
			wideErr = err
			return
		}
		ev := rec.Request
		par := 1
		if ev.Endpoint == "analyze:batch" {
			par = max(min(ev.Vectors, workers), 1)
		}
		engine := ev.Phases.Sum() / time.Duration(par)
		phases := map[string]any{"engineMs": ms3(engine), "traceId": ev.TraceID}
		for _, p := range obs.Phases() {
			if ev.Phases[p] > 0 {
				phases[p.String()+"Ms"] = ms3(ev.Phases[p])
			}
		}
		tr.spans[open].name = "POST /v1/" + ev.Endpoint
		tr.join(open, "stad "+ev.Endpoint, ev.Start, ev.Wall, phases)
		clientSpans = append(clientSpans, open)
		reqs = append(reqs, served{server: ev.Wall, engine: engine, size: size})
	}
	if _, err := s.measure(d, w, dur, hdr, after); err != nil {
		return nil, s, err
	}
	if wideErr != nil {
		return nil, s, fmt.Errorf("wide event: %w", wideErr)
	}
	var h health
	if err := d.getJSON("/healthz", &h); err != nil {
		return nil, s, err
	}
	d.stop()
	if err := s.check(w); err != nil {
		return nil, s, err
	}

	self := tr.self()
	var server, selfMs, transport, kb []float64
	for _, i := range clientSpans {
		transport = append(transport, float64(self[i])/1e6)
	}
	for _, r := range reqs {
		server = append(server, float64(r.server)/1e6)
		selfMs = append(selfMs, float64(r.server-r.engine)/1e6)
		kb = append(kb, float64(r.size)/1024)
	}
	n := fmt.Sprintf("median of %d traced requests", len(reqs))
	add("service.server_ms", "ms", median(server), n+" (wide-event wall)")
	add("service.self_ms", "ms", median(selfMs), "server wall − engine phases (batch phases ÷ min(vectors, workers))")
	add("service.transport_ms", "ms", median(transport), "client span self time: latency − server wall")
	add("service.resp_kb", "KB", median(kb), n)
	add("service.baselines_resident", "count", float64(h.Baselines), "/healthz after the traced loop")
	ms = append(ms, setup...)

	var reps []*replayed
	rs := tr.begin("bench", "replay session")
	for k := w.warmup() + 1; k <= w.warmup()+replayRequests; k++ {
		r, err := w.replay(k, tr)
		if err != nil {
			return nil, s, fmt.Errorf("replay request %d: %w", k, err)
		}
		reps = append(reps, r)
	}
	tr.end(rs, "requests", len(reps))
	perReq := func(f func(r *replayed) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	rn := fmt.Sprintf("per request, median of %d replayed in-process", len(reps))
	for _, p := range []obs.Phase{obs.PhaseSchedule, obs.PhaseSeed, obs.PhaseEval, obs.PhaseCommit, obs.PhaseGlitch, obs.PhaseDelta, obs.PhaseMC} {
		add("sta."+p.String()+"_ms", "ms", perReq(func(r *replayed) float64 { return float64(r.phases[p]) / 1e6 }), rn)
	}
	count := func(name string, f func(st *sta.Stats) int) {
		add("sta."+name, "count", perReq(func(r *replayed) float64 { return float64(f(&r.stats)) }), rn)
	}
	count("gates_scheduled", func(st *sta.Stats) int { return st.GatesScheduled })
	count("gates_evaluated", func(st *sta.Stats) int { return st.GatesEvaluated })
	count("gates_reevaluated", func(st *sta.Stats) int { return st.GatesReevaluated })
	count("evaluations", func(st *sta.Stats) int { return st.Evaluations })
	count("proximity_evals", func(st *sta.Stats) int { return st.ProximityEvals })
	count("pulses_judged", func(st *sta.Stats) int { return st.PulsesFiltered + st.PulsesDegraded })
	count("pulses_unjudged", func(st *sta.Stats) int { return st.PulsesUnjudged })
	var useful, tried int
	for _, r := range reps {
		useful, tried = useful+r.useful, tried+r.tried
	}
	add("sta.eval_yield", "ratio", float64(useful)/float64(max(tried, 1)), fmt.Sprintf("%d useful of %d scheduled", useful, tried))

	ms = append(ms, gateLayers(reps, fx.circuit.Gates, tr)...)
	ms = append(ms, mcLayers(reps, tr)...)
	ms = append(ms, resultMemory(reps, tr))

	tp50, up50 := quantile(tracedMs, 0.5), quantile(plainMs, 0.5)
	add("trace.p50_overhead", "ratio", tp50/up50, fmt.Sprintf("traced p50 %.3f ms / untraced p50 %.3f ms, alternating requests", tp50, up50))

	data, err := tr.chrome()
	if err != nil {
		return nil, s, fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		return nil, s, err
	}
	fmt.Printf("stadbench: wrote %d spans to %s\n", len(tr.spans), tracePath)
	printSelfTimes(tr)
	return ms, s, nil
}

func ms3(d time.Duration) float64 { return math.Round(float64(d)/1e3) / 1e3 }

// setupLayers times the calls behind setup_s in-process: the registry load
// of the three cells, netlist parse, compile, and the cone build of the
// first cone-pruned analysis.
func setupLayers(fx *fixture, tr *tracer) ([]metric, error) {
	const reps = 5
	var reg, parse, compile, cones []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("service", "service.Registry.Get")
		lib, err := loadLibrary(fx.libDir)
		if err != nil {
			return nil, err
		}
		tr.end(sp, "cells", len(cells))
		reg = append(reg, float64(tr.spans[sp].dur())/1e6)

		sp = tr.begin("sta", "sta.ParseNetlist")
		c, err := sta.ParseNetlist(strings.NewReader(fx.netlist), lib)
		if err != nil {
			return nil, err
		}
		tr.end(sp, "gates", len(c.Gates))
		parse = append(parse, float64(tr.spans[sp].dur())/1e6)

		sp = tr.begin("sta", "sta.Circuit.Compile")
		p, err := c.Compile()
		if err != nil {
			return nil, err
		}
		tr.end(sp, "levels", p.NumLevels())
		compile = append(compile, float64(tr.spans[sp].dur())/1e6)

		sp = tr.begin("sta", "sta.Compiled.Analyze first")
		one := []sta.PIEvent{{Net: c.PIs[0], Dir: waveform.Rising, TT: 200e-12}}
		res, err := p.Analyze(context.Background(), one, sta.Proximity, stadOptions)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		cones = append(cones, float64(res.Stats.Phases[obs.PhaseCones])/1e6)
	}
	n := fmt.Sprintf("median of %d in-process", reps)
	return []metric{
		{name: "service.registry_load_ms", unit: "ms", value: median(reg), note: n + " (three cells, fresh registry)"},
		{name: "sta.parse_ms", unit: "ms", value: median(parse), note: n},
		{name: "sta.compile_ms", unit: "ms", value: median(compile), note: n},
		{name: "sta.cones_ms", unit: "ms", value: median(cones), note: n + " (first analysis on a fresh handle)"},
	}, nil
}

// arc is one gate-output evaluation rebuilt from committed arrivals the way
// the engine presents it to core.Calculator.Evaluate.
type arc struct {
	g   *sta.Gate
	evs []core.InputEvent
}

// maxArcs bounds the replayed evaluations.
const maxArcs = 50000

// replayArcs rebuilds the input events of every replayed gate output that
// switched, from the replayed results' committed arrivals.
func replayArcs(reps []*replayed, all []*sta.Gate) []arc {
	var arcs []arc
	for _, r := range reps {
		gates := r.gates
		if gates == nil {
			gates = all
		}
		for _, res := range r.results {
			for _, g := range gates {
				for _, out := range []waveform.Direction{waveform.Rising, waveform.Falling} {
					in := out.Opposite()
					var evs []core.InputEvent
					for pin, n := range g.In {
						if a, ok := res.Arrival(n, in); ok {
							evs = append(evs, core.InputEvent{Pin: pin, Dir: in, TT: a.TT, Cross: a.Time})
						}
					}
					if len(evs) > 0 {
						arcs = append(arcs, arc{g: g, evs: evs})
						if len(arcs) == maxArcs {
							return arcs
						}
					}
				}
			}
		}
	}
	return arcs
}

// timeLoop calls f(i) for i in [0, n) repeatedly until at least 100 ms
// have passed and returns the mean nanoseconds per call.
func timeLoop(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls)
}

// gridPoint is one table interpolation EvaluateExplain reports.
type gridPoint struct {
	g          *table.Grid
	x1, x2, x3 float64
}

// pulsePair is one opposite-edge pair pulse filtering judged.
type pulsePair struct {
	m                   *macromodel.GateModel
	fallPin, risePin    int
	ttFall, ttRise, sep float64
}

// gateLayers replays the per-gate evaluation path on the replayed inputs:
// core.Calculator.Evaluate on the rebuilt arcs, the macromodel lookups one
// evaluation performs, the table interpolations EvaluateExplain reports,
// and core.EvaluatePulse on the pairs pulse filtering judged.
func gateLayers(reps []*replayed, all []*sta.Gate, tr *tracer) []metric {
	arcs := replayArcs(reps, all)
	var ms []metric
	sp := tr.begin("core", "core.Calculator.Evaluate")
	ns := timeLoop(len(arcs), func(i int) { _, _ = arcs[i].g.Calc.Evaluate(arcs[i].evs) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, a := range arcs {
		_, _ = a.g.Calc.Evaluate(a.evs)
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp, "arcs", len(arcs))
	n := fmt.Sprintf("mean over %d replayed gate arcs", len(arcs))
	ms = append(ms,
		metric{name: "core.evaluate_ns", unit: "ns", value: ns, note: n},
		metric{name: "core.evaluate_allocs", unit: "count", value: float64(m1.Mallocs-m0.Mallocs) / float64(max(len(arcs), 1)), note: n})

	// The lookups and interpolations one evaluation performs, at the pins
	// and normalized coordinates the decision trace records.
	const (
		single = iota
		dual
		glitch
	)
	type modelLookup struct {
		m          *macromodel.GateModel
		kind       int
		pin, other int
		dir        waveform.Direction
	}
	var points []gridPoint
	var lookups []modelLookup
	for _, a := range arcs {
		_, ex, err := a.g.Calc.EvaluateExplain(a.evs)
		if err != nil {
			continue
		}
		m := a.g.Calc.Model
		for _, e := range a.evs {
			lookups = append(lookups, modelLookup{m: m, kind: single, pin: e.Pin, dir: e.Dir})
		}
		ref := ex.Inputs[ex.Order[0]].Pin
		for _, st := range append(ex.Delay, ex.TT...) {
			if st.Pruned {
				continue
			}
			lookups = append(lookups, modelLookup{m: m, kind: dual, pin: ref, other: st.Pin, dir: ex.Dir})
			if d := m.Dual(ref, st.Pin, ex.Dir); d != nil {
				points = append(points, gridPoint{d.DelayRatio, st.X1, st.X2, st.X3}, gridPoint{d.TTRatio, st.X1, st.X2, st.X3})
			}
		}
	}
	pairs := judgedPairs(reps, all)
	for _, p := range pairs {
		lookups = append(lookups, modelLookup{m: p.m, kind: glitch, pin: p.fallPin, other: p.risePin})
	}
	sp = tr.begin("macromodel", "macromodel.GateModel lookups")
	found := 0
	lookupNs := timeLoop(len(lookups), func(i int) {
		l := &lookups[i]
		switch l.kind {
		case single:
			if l.m.Single(l.pin, l.dir) != nil {
				found++
			}
		case dual:
			if l.m.Dual(l.pin, l.other, l.dir) != nil {
				found++
			}
		case glitch:
			if l.m.Glitch(l.pin, l.other) != nil {
				found++
			}
		}
	})
	tr.end(sp, "lookups", len(lookups), "found", found)
	ms = append(ms, metric{name: "macromodel.lookup_ns", unit: "ns", value: lookupNs,
		note: fmt.Sprintf("mean over %d Single/Dual/Glitch lookups", len(lookups))})

	sp = tr.begin("table", "table.Grid.Eval")
	var total float64
	evalNs := timeLoop(len(points), func(i int) {
		p := &points[i]
		total += p.g.Eval(p.x1, p.x2, p.x3)
	})
	tr.end(sp, "evals", len(points))
	if len(points) == 0 {
		ms = append(ms, metric{name: "table.eval_ns", unit: "ns", unmeasured: true, note: "no replayed evaluation combined two inputs"})
	} else {
		ms = append(ms, metric{name: "table.eval_ns", unit: "ns", value: evalNs, note: fmt.Sprintf("mean over %d dual-table interpolations", len(points))})
	}
	ms = append(ms, metric{name: "table.lookups_per_evaluate", unit: "count", value: float64(len(points)) / float64(max(len(arcs), 1)),
		note: "Grid.Eval calls per Evaluate (two per absorbed input)"})

	if len(pairs) == 0 {
		ms = append(ms, metric{name: "core.pulse_ns", unit: "ns", unmeasured: true, note: "pulse filtering is off on this workload: no pair was judged"})
		return ms
	}
	sp = tr.begin("core", "core.EvaluatePulse")
	absorbed := 0
	pulseNs := timeLoop(len(pairs), func(i int) {
		p := &pairs[i]
		if v, _ := core.EvaluatePulse(p.m, p.fallPin, p.risePin, p.ttFall, p.ttRise, p.sep); v.Filtered {
			absorbed++
		}
	})
	tr.end(sp, "pairs", len(pairs), "absorbed", absorbed)
	return append(ms, metric{name: "core.pulse_ns", unit: "ns", value: pulseNs, note: fmt.Sprintf("mean over %d judged pairs", len(pairs))})
}

// judgedPairs collects the opposite-edge pairs pulse filtering absorbed or
// degraded in the replayed results, with the inputs it judged them on.
func judgedPairs(reps []*replayed, all []*sta.Gate) []pulsePair {
	var pairs []pulsePair
	for _, r := range reps {
		for _, res := range r.results {
			if !res.PulseFiltering() {
				continue
			}
			for _, g := range all {
				pi, ok := res.Pulse(g.Out)
				if !ok || pi.Unjudged {
					continue
				}
				f, okF := res.Arrival(g.In[pi.FallPin], waveform.Falling)
				rr, okR := res.Arrival(g.In[pi.RisePin], waveform.Rising)
				if okF && okR {
					pairs = append(pairs, pulsePair{g.Calc.Model, pi.FallPin, pi.RisePin, f.TT, rr.TT, f.Time - rr.Time})
				}
			}
		}
	}
	return pairs
}

// mcLayers times the Monte-Carlo layer: the sample loop per sample, one
// deviate, and one output's distribution at the request's sample count.
func mcLayers(reps []*replayed, tr *tracer) []metric {
	if reps[0].mc == nil {
		why := "no Monte-Carlo analysis on this workload"
		return []metric{
			{name: "mc.sample_us", unit: "us", unmeasured: true, note: why},
			{name: "mc.multiplier_ns", unit: "ns", unmeasured: true, note: why},
			{name: "mc.dist_us", unit: "us", unmeasured: true, note: why},
		}
	}
	var perSample []float64
	var columns [][]float64
	for _, r := range reps {
		perSample = append(perSample, float64(r.phases[obs.PhaseMC])/1e3/float64(r.mc.Samples))
		columns = append(columns, r.columns...)
	}
	r := reps[0]
	sp := tr.begin("mc", "mc.Multiplier")
	var sink float64
	multNs := timeLoop(r.mc.Samples*len(r.cone), func(i int) {
		sink += mc.Multiplier(r.mc.Seed, i/len(r.cone), r.mc.Sigma, r.cone[i%len(r.cone)])
	})
	tr.end(sp, "calls", r.mc.Samples*len(r.cone))
	sp = tr.begin("mc", "mc.NewDist")
	distNs := timeLoop(len(columns), func(i int) { sink += mc.NewDist(columns[i], 0).Mean })
	tr.end(sp, "outputs", len(columns))
	_ = sink
	return []metric{
		{name: "mc.sample_us", unit: "us", value: median(perSample), note: "sta.mc_ms per sample, median over replayed requests"},
		{name: "mc.multiplier_ns", unit: "ns", value: multNs, note: fmt.Sprintf("mean over the %d stimulated-cone gates × %d samples", len(r.cone), r.mc.Samples)},
		{name: "mc.dist_us", unit: "us", value: distNs / 1e3, note: fmt.Sprintf("mean over %d output columns of %d samples", len(columns), r.mc.Samples)},
	}
}

// resultMemory measures the heap one Result of the workload holds: the
// heap freed when the replayed results referenced nowhere else are dropped.
func resultMemory(reps []*replayed, tr *tracer) metric {
	held := map[*sta.Result]bool{}
	for _, r := range reps {
		for _, res := range r.held {
			held[res] = true
		}
	}
	if len(held) == 0 {
		return metric{name: "sta.result_kb", unit: "KB", unmeasured: true, note: "no replayed result is droppable"}
	}
	sp := tr.begin("sta", "sta.Result heap")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reps {
		r.held = nil
		r.results = slices.DeleteFunc(r.results, func(res *sta.Result) bool { return held[res] })
	}
	dropped := len(held)
	clear(held)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reps)
	tr.end(sp)
	kb := (float64(before.HeapAlloc) - float64(after.HeapAlloc)) / 1024 / float64(dropped)
	return metric{name: "sta.result_kb", unit: "KB", value: kb, note: fmt.Sprintf("heap freed per dropped result, %d dropped", dropped)}
}

// printSelfTimes prints, per span name, how many spans ran, their total
// time and their self time (the span minus its children).
func printSelfTimes(tr *tracer) {
	self := tr.self()
	type agg struct {
		layer      string
		n          int
		total, own time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for i, sp := range tr.spans {
		a := by[sp.name]
		if a == nil {
			a = &agg{layer: sp.layer}
			by[sp.name] = a
			names = append(names, sp.name)
		}
		a.n++
		a.total += sp.dur()
		a.own += self[i]
	}
	slices.SortFunc(names, func(x, y string) int { return int(by[y].total - by[x].total) })
	fmt.Printf("  %-36s %-10s %6s %12s %12s\n", "span", "layer", "count", "total ms", "self ms")
	for _, name := range names {
		a := by[name]
		fmt.Printf("  %-36s %-10s %6d %12.3f %12.3f\n", name, a.layer, a.n, float64(a.total)/1e6, float64(a.own)/1e6)
	}
}
