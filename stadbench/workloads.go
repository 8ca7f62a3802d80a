package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/service"
	"repro/internal/sta"
)

// request is one HTTP call of a workload.
type request struct {
	path string
	body []byte
}

// workload is one caller's session against a daemon. The runner sends
// begin's request at the end of every cold start, then next's requests in a
// closed loop, handing each answer to answer before asking for the next.
type workload interface {
	// begin starts a session on a freshly uploaded netlist and returns the
	// request a cold start ends with. Its answer is checked at once against
	// a reference computed before the first cold start.
	begin(netlist string) request
	// next returns the session's next request.
	next() request
	// answer decodes the answer to the request last returned, applies the
	// workload's non-vacuity guard, records its digest for verify and
	// advances the session (a kept delta becomes the next baseline).
	answer(body []byte) error
	// warmup is how many requests follow the cold start before measuring.
	warmup() int
	// ready checks the daemon state measurement needs.
	ready(d *daemon) error
	// verify recomputes every answer recorded since begin in-process and
	// returns how many it checked and how many differ from their reference.
	verify() (checked, failed int, err error)
	// replay re-runs the engine work of the session's k-th request (k >= 1,
	// called in order) in-process at stad's options, for the traced run.
	replay(k int, tr *tracer) (*replayed, error)
}

// stadOptions are the engine options stad's handlers pass at its defaults
// (workers = one per CPU, cone-pruned scheduling).
var stadOptions = sta.Options{}

// verifyChunk bounds how many reference analyses run in one AnalyzeBatch.
const verifyChunk = 16

// referenceDigests analyzes vecs with AnalyzeBatch at stad's options and
// returns the digest of each result's wire form.
func (fx *fixture) referenceDigests(vecs [][]sta.PIEvent) ([]digest, error) {
	var out []digest
	for lo := 0; lo < len(vecs); lo += verifyChunk {
		results, err := fx.compiled.AnalyzeBatch(context.Background(), vecs[lo:min(lo+verifyChunk, len(vecs))], sta.Proximity, stadOptions)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			vr := wireResult(fx.circuit, res)
			out = append(out, vectorDigest(&vr))
		}
	}
	return out, nil
}

// countMismatches compares answers with references.
func countMismatches(got, want []digest) (failed int) {
	for i := range got {
		if got[i] != want[i] {
			failed++
		}
	}
	return failed
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types marshal unconditionally
	}
	return b
}

// ---- sweep-full ----------------------------------------------------------

// sweepFull is a sweep script: /v1/analyze:batch with two full-activity
// vectors per request, so every gate of the netlist evaluates.
type sweepFull struct {
	fx      *fixture
	netlist string
	k       int
	got     []digest // answers of requests 1..k, two per request
	first   []digest // reference of the cold-start request
}

const sweepVectors = 2

func newSweepFull(fx *fixture) (*sweepFull, error) {
	w := &sweepFull{fx: fx}
	var err error
	w.first, err = fx.referenceDigests(w.resolved(0))
	return w, err
}

func (w *sweepFull) vectors(k int) [][]service.Event {
	vecs := make([][]service.Event, sweepVectors)
	for i := range vecs {
		vecs[i] = w.fx.fullVector(int64(sweepVectors*k + i))
	}
	return vecs
}

func (w *sweepFull) resolved(k int) [][]sta.PIEvent {
	var out [][]sta.PIEvent
	for _, v := range w.vectors(k) {
		out = append(out, w.fx.resolve(v))
	}
	return out
}

func (w *sweepFull) begin(netlist string) request {
	w.netlist, w.k, w.got = netlist, 0, w.got[:0]
	return w.request()
}

func (w *sweepFull) next() request {
	w.k++
	return w.request()
}

func (w *sweepFull) request() request {
	return request{"/v1/analyze:batch", mustMarshal(service.BatchRequest{Netlist: w.netlist, Vectors: w.vectors(w.k)})}
}

func (w *sweepFull) answer(body []byte) error {
	var resp service.BatchResponse
	if err := decode(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != sweepVectors {
		return fmt.Errorf("batch answered %d results for %d vectors", len(resp.Results), sweepVectors)
	}
	for i := range resp.Results {
		vr := &resp.Results[i]
		if vr.GatesEvaluated != w.fx.gates() {
			return fmt.Errorf("guard: full-activity vector evaluated %d of %d gates", vr.GatesEvaluated, w.fx.gates())
		}
		d := vectorDigest(vr)
		if w.k == 0 {
			if d != w.first[i] {
				return fmt.Errorf("cold-start answer vector %d differs from the in-process AnalyzeBatch", i)
			}
			continue
		}
		w.got = append(w.got, d)
	}
	return nil
}

func (w *sweepFull) warmup() int         { return 2 }
func (w *sweepFull) ready(*daemon) error { return nil }

func (w *sweepFull) verify() (int, int, error) {
	var vecs [][]sta.PIEvent
	for k := 1; k <= len(w.got)/sweepVectors; k++ {
		vecs = append(vecs, w.resolved(k)...)
	}
	want, err := w.fx.referenceDigests(vecs)
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	for i := 0; i < len(w.got); i += sweepVectors {
		if countMismatches(w.got[i:i+sweepVectors], want[i:i+sweepVectors]) > 0 {
			failed++
		}
	}
	return len(w.got) / sweepVectors, failed, nil
}

// ---- eco-interactive -----------------------------------------------------

// ecoInteractive is a designer's edit loop: one kept full-activity
// baseline, then single-input timing edits through /v1/analyze:delta. The
// warm-up keeps every edit until the daemon's 128-entry baseline cache is
// full; afterwards every fourth edit is kept as the next baseline (a write)
// and the others are what-if probes against it (reads).
type ecoInteractive struct {
	fx       *fixture
	base     []service.Event // the full-activity vector of the first baseline
	cur      []service.Event // base with every kept edit applied
	baseline string          // the daemon's handle for cur
	rng      *rand.Rand
	k        int
	edits    []ecoEdit
	first    digest

	// Replay state: the in-process baseline chain of the traced run.
	replayBase *sta.Result
	replayVec  []sta.PIEvent
}

// ecoEdit is one delta request and the digest of its answer.
type ecoEdit struct {
	pi   int
	ev   service.Event
	keep bool
	got  digest
}

const (
	ecoBaselines  = 128 // stad's default -max-baselines
	ecoWriteEvery = 4
)

func newEcoInteractive(fx *fixture) (*ecoInteractive, error) {
	w := &ecoInteractive{fx: fx, base: fx.fullVector(0)}
	d, err := fx.referenceDigests([][]sta.PIEvent{fx.resolve(w.base)})
	if err != nil {
		return nil, err
	}
	w.first = d[0]
	return w, nil
}

func (w *ecoInteractive) begin(netlist string) request {
	w.k, w.edits, w.baseline = 0, w.edits[:0], ""
	w.cur = slices.Clone(w.base)
	w.rng = rand.New(rand.NewSource(derive(w.fx.seed, streamEdits)))
	return request{"/v1/analyze", mustMarshal(service.AnalyzeRequest{Netlist: netlist, Vector: w.base, KeepBaseline: true})}
}

func (w *ecoInteractive) next() request {
	w.k++
	pi, ev := timingEdit(w.rng, w.cur)
	keep := w.k <= ecoBaselines || (w.k-ecoBaselines)%ecoWriteEvery == 0
	w.edits = append(w.edits, ecoEdit{pi: pi, ev: ev, keep: keep})
	return request{"/v1/analyze:delta", mustMarshal(service.DeltaRequest{
		Baseline: w.baseline, Set: []service.Event{ev}, KeepBaseline: keep,
	})}
}

func (w *ecoInteractive) answer(body []byte) error {
	if w.k == 0 {
		var resp service.AnalyzeResponse
		if err := decode(body, &resp); err != nil {
			return err
		}
		if vectorDigest(&resp.VectorResult) != w.first {
			return fmt.Errorf("cold-start baseline differs from the in-process Analyze")
		}
		if resp.BaselineID == "" {
			return fmt.Errorf("keepBaseline answered no baseline id")
		}
		w.baseline = resp.BaselineID
		return nil
	}
	var resp service.DeltaResponse
	if err := decode(body, &resp); err != nil {
		return err
	}
	if resp.GatesReevaluated*100 >= w.fx.gates() {
		return fmt.Errorf("guard: a single-input delta re-evaluated %d of %d gates (want < 1%%)", resp.GatesReevaluated, w.fx.gates())
	}
	e := &w.edits[len(w.edits)-1]
	e.got = vectorDigest(&resp.VectorResult)
	if e.keep {
		if resp.BaselineID == "" {
			return fmt.Errorf("kept delta answered no baseline id")
		}
		w.baseline = resp.BaselineID
		w.cur[e.pi] = e.ev
	}
	return nil
}

func (w *ecoInteractive) warmup() int { return ecoBaselines }

func (w *ecoInteractive) ready(d *daemon) error {
	var h health
	if err := d.getJSON("/healthz", &h); err != nil {
		return err
	}
	if h.Baselines != ecoBaselines {
		return fmt.Errorf("guard: %d baselines resident before measuring, want %d", h.Baselines, ecoBaselines)
	}
	return nil
}

// verify checks every delta against a full Analyze of the cumulatively
// edited vector: the baseline with every earlier kept edit and this edit
// applied.
func (w *ecoInteractive) verify() (int, int, error) {
	vec := w.fx.resolve(w.base)
	var vecs [][]sta.PIEvent
	var got []digest
	failed := 0
	flush := func() error {
		want, err := w.fx.referenceDigests(vecs)
		if err != nil {
			return err
		}
		failed += countMismatches(got, want)
		vecs, got = vecs[:0], got[:0]
		return nil
	}
	for _, e := range w.edits {
		v := slices.Clone(vec)
		v[e.pi] = w.fx.resolve([]service.Event{e.ev})[0]
		if e.keep {
			vec = v
		}
		vecs, got = append(vecs, v), append(got, e.got)
		if len(vecs) == verifyChunk {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	return len(w.edits), failed, nil
}

// ---- mc-glitch -----------------------------------------------------------

// mcGlitch is a variation study: /v1/analyze:mc with pulse filtering on
// over a runt-heavy four-tile stimulus, one Monte-Carlo seed per request.
type mcGlitch struct {
	fx      *fixture
	netlist string
	k       int
	got     []digest
	first   digest
}

const (
	mcSamples = 128
	mcSigma   = 0.05
)

func newMCGlitch(fx *fixture) (*mcGlitch, error) {
	w := &mcGlitch{fx: fx}
	d, err := w.reference(0)
	w.first = d
	return w, err
}

func (w *mcGlitch) spec(k int) ([]service.Event, sta.MCOptions) {
	opt := sta.MCOptions{
		Samples: mcSamples, Seed: uint64(derive(w.fx.seed, streamMC)) + uint64(k), Sigma: mcSigma,
		Options: stadOptions,
	}
	opt.PulseFiltering = true
	return w.fx.runtVector(int64(k)), opt
}

func (w *mcGlitch) reference(k int) (digest, error) {
	vec, opt := w.spec(k)
	res, err := w.fx.compiled.AnalyzeMC(context.Background(), w.fx.resolve(vec), sta.Proximity, opt)
	if err != nil {
		return 0, err
	}
	resp := wireMC(res)
	return mcDigest(&resp), nil
}

func (w *mcGlitch) begin(netlist string) request {
	w.netlist, w.k, w.got = netlist, 0, w.got[:0]
	return w.request()
}

func (w *mcGlitch) next() request {
	w.k++
	return w.request()
}

func (w *mcGlitch) request() request {
	vec, opt := w.spec(w.k)
	return request{"/v1/analyze:mc", mustMarshal(service.MCRequest{
		Netlist: w.netlist, Vector: vec, Samples: opt.Samples, Seed: opt.Seed, Sigma: opt.Sigma, PulseFilter: true,
	})}
}

func (w *mcGlitch) answer(body []byte) error {
	var resp service.MCResponse
	if err := decode(body, &resp); err != nil {
		return err
	}
	if judged := resp.PulsesFiltered + resp.PulsesDegraded; judged < resp.Samples {
		return fmt.Errorf("guard: %d pulses judged over %d samples (want at least one per sample)", judged, resp.Samples)
	}
	d := mcDigest(&resp)
	if w.k == 0 {
		if d != w.first {
			return fmt.Errorf("cold-start answer differs from the in-process AnalyzeMC")
		}
		return nil
	}
	w.got = append(w.got, d)
	return nil
}

func (w *mcGlitch) warmup() int         { return 2 }
func (w *mcGlitch) ready(*daemon) error { return nil }

func (w *mcGlitch) verify() (int, int, error) {
	failed := 0
	for i, got := range w.got {
		want, err := w.reference(i + 1)
		if err != nil {
			return 0, 0, err
		}
		if got != want {
			failed++
		}
	}
	return len(w.got), failed, nil
}
