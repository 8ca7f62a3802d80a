package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// refVector is the wire-struct builder the vector answers used before they
// were streamed, kept verbatim as the reference the answer encoder must
// match: primary outputs by default, every net when the call's scope is
// all, in output declaration order or by sorted net name, [] when empty.
func refVector(c *call, res *sta.Result) VectorResult {
	circuit := c.compiled.Circuit()
	vr := VectorResult{
		Arrivals:       []Arrival{},
		GatesEvaluated: res.Stats.GatesEvaluated,
		ProximityEvals: res.Stats.ProximityEvals,
		SingleArcEvals: res.Stats.SingleArcEvals,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	appendNet := func(n *sta.Net) {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			if a, ok := res.Arrival(n, dir); ok {
				vr.Arrivals = append(vr.Arrivals, Arrival{
					Net:        n.Name,
					Dir:        dir.String(),
					TimePs:     a.Time * 1e12,
					TTPs:       a.TT * 1e12,
					UsedInputs: a.UsedInputs,
				})
			}
		}
	}
	if c.nets == netsAll {
		for _, name := range circuit.NetsByName() {
			appendNet(circuit.Net(name))
		}
	} else {
		for _, po := range circuit.POs {
			appendNet(po)
		}
	}
	return vr
}

// refEncode encodes an answer the way the vector endpoints did before
// streaming: one json.Encoder over the whole wire struct.
func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oddStems start the net names of escapeCircuit: plain names, and names
// encoding/json escapes (HTML characters, quotes, backslashes, control
// bytes, U+2028/U+2029, invalid UTF-8) or copies as multi-byte UTF-8.
var oddStems = []string{"n", "net_", "a<b", "c>d", "e&f", `g"h`, `i\j`, "é", "ü≠", "l\u2028m", "o\u2029p",
	"\xffq", "r\xc3s", "t\x01u", "v\tw", "x\x7fy", "z/"}

// escapeCircuit builds a layered random DAG over the synthetic library
// whose nets are named from oddStems, every net without fanout an output,
// plus a lone inverter off to the side whose output is not one: a vector
// on "lone" reports no output arrival.
func escapeCircuit(t testing.TB, nPIs, nGates int, seed int64) *sta.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := sta.NewCircuit(sta.SynthLibrary(3))
	name := func(i int) string { return oddStems[rng.Intn(len(oddStems))] + strconv.Itoa(i) }
	var pool []*sta.Net
	for i := 0; i < nPIs; i++ {
		pool = append(pool, c.Input(name(i)))
	}
	fanout := map[*sta.Net]bool{}
	for i := 0; i < nGates; i++ {
		typ, arity := "nand2", 2
		switch r := rng.Intn(10); {
		case r < 2:
			typ, arity = "inv", 1
		case r >= 7:
			typ, arity = "nand3", 3
		}
		ins := make([]*sta.Net, arity)
		for k := range ins {
			// The first input from the newest nets keeps the DAG deep.
			lo := 0
			if k == 0 && len(pool) > 16 {
				lo = len(pool) - 16
			}
			ins[k] = pool[lo+rng.Intn(len(pool)-lo)]
			fanout[ins[k]] = true
		}
		out, err := c.AddGate("g"+strconv.Itoa(i), typ, name(nPIs+i), ins...)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, out)
	}
	for _, n := range pool {
		if !fanout[n] && n.Driver != nil {
			c.MarkOutput(n)
		}
	}
	if _, err := c.AddGate("lone_inv", "inv", "lone_out", c.Input("lone")); err != nil {
		t.Fatal(err)
	}
	return c
}

// answerBytes streams an answer into a recorder and returns its body.
func answerBytes(t testing.TB, a *vectorAnswer) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	a.writeTo(rec)
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
	return rec.Body.Bytes()
}

// sameBytes fails the test with the first difference between two answers.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	t.Fatalf("%s: answers differ at byte %d of %d (want %d)\n got …%q\nwant …%q",
		what, i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// TestAnswerMatchesEncodingJSON checks the streamed vector answers byte for
// byte against the wire structs encoded by json.Encoder, on engine results
// of random circuits with odd net names: prox and conv, pulse filtering
// off and on, outputs and all nets, with and without a ?trace=1 document;
// analyze answers with and without a kept baseline, delta answers, batch
// answers, a vector with no reported arrival, and the Monte-Carlo corners'
// arrival arrays.
func TestAnswerMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	var answers, withPulses, withoutPulses, empty, overChunk, traced int
	for seed := int64(1); seed <= 3; seed++ {
		circuit := escapeCircuit(t, 14, 180, seed)
		p, err := circuit.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var pis []*sta.Net
		for _, pi := range circuit.PIs {
			if pi.Name != "lone" {
				pis = append(pis, pi)
			}
		}
		full := sta.SynthEventsFor(pis, seed)
		partial := sta.SynthEventsFor(pis[:3], seed+10)
		lone := []sta.PIEvent{{Net: circuit.Net("lone"), Dir: waveform.Rising, Time: 5e-12, TT: 200e-12}}
		edit := sta.Delta{Set: []sta.PIEvent{{Net: full[0].Net, Dir: full[0].Dir, Time: full[0].Time + 9e-12, TT: full[0].TT * 1.2}}}
		for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
			for _, filter := range []bool{false, true} {
				for _, scope := range []netScope{netsOutputs, netsAll} {
					for _, withTrace := range []bool{false, true} {
						st := &reqState{}
						opt := sta.Options{Workers: 1, PulseFiltering: filter}
						if withTrace {
							st.forceTrace, st.tr = true, obs.NewTrace()
							opt.Trace = st.tr
						}
						c := &call{compiled: p, mode: mode, nets: scope, st: st}
						var results []*sta.Result
						for _, vec := range [][]sta.PIEvent{full, partial, lone} {
							res, err := p.Analyze(ctx, vec, mode, opt)
							if err != nil {
								t.Fatal(err)
							}
							results = append(results, res)
						}
						delta, err := p.AnalyzeDelta(ctx, results[0], edit, opt)
						if err != nil {
							t.Fatal(err)
						}
						if withTrace && seed == 1 {
							// A document larger than a chunk goes out in
							// one write of its own.
							for i := 0; i < 1500; i++ {
								st.tr.Instant(1, 1, "test", "pad", map[string]any{"i": i})
							}
						}
						label := mode.String() + " filter=" + strconv.FormatBool(filter) + " nets=" + strconv.Itoa(int(scope)) +
							" trace=" + strconv.FormatBool(withTrace) + " seed=" + strconv.FormatInt(seed, 10)
						for i, res := range results {
							for _, bl := range []string{"", "b" + strconv.Itoa(i+7)} {
								a, err := c.answer(analyzeAnswer, mode.String(), res)
								if err != nil {
									t.Fatal(err)
								}
								a.baselineID = bl
								got := answerBytes(t, a)
								sameBytes(t, label+" analyze vector "+strconv.Itoa(i)+" baseline="+bl, got, refEncode(t, AnalyzeResponse{
									Mode: mode.String(), VectorResult: refVector(c, res), BaselineID: bl, Trace: c.inlineTrace(),
								}))
								answers++
								if len(got) > answerChunk {
									overChunk++
								}
							}
							vr := refVector(c, res)
							if len(vr.Arrivals) == 0 {
								empty++
							}
							if vr.PulsesFiltered+vr.PulsesDegraded+vr.PulsesUnjudged > 0 {
								withPulses++
							} else {
								withoutPulses++
							}
							// The Monte-Carlo corners' arrival arrays.
							corner, err := cornerArrivals(res, c.reported())
							if err != nil {
								t.Fatal(err)
							}
							want, err := json.Marshal(vr.Arrivals)
							if err != nil {
								t.Fatal(err)
							}
							sameBytes(t, label+" corner arrivals "+strconv.Itoa(i), corner, want)
						}
						for _, bl := range []string{"", "b99"} {
							a, err := c.answer(deltaAnswer, delta.Mode.String(), delta)
							if err != nil {
								t.Fatal(err)
							}
							a.baselineID = bl
							sameBytes(t, label+" delta baseline="+bl, answerBytes(t, a), refEncode(t, DeltaResponse{
								Mode: delta.Mode.String(), VectorResult: refVector(c, delta),
								GatesReevaluated: delta.Stats.GatesReevaluated, GatesReused: delta.Stats.GatesReused,
								BaselineID: bl, Trace: c.inlineTrace(),
							}))
							answers++
						}
						a, err := c.answer(batchAnswer, mode.String(), results...)
						if err != nil {
							t.Fatal(err)
						}
						ref := BatchResponse{Mode: mode.String()}
						for _, res := range results {
							ref.Results = append(ref.Results, refVector(c, res))
						}
						got := answerBytes(t, a)
						sameBytes(t, label+" batch", got, refEncode(t, ref))
						answers++
						if len(got) > answerChunk {
							overChunk++
						}
						if withTrace {
							traced++
						}
					}
				}
			}
		}
	}
	t.Logf("%d answers: %d vectors with pulse counters, %d without, %d with no arrival, %d answers over a chunk, %d traced configs",
		answers, withPulses, withoutPulses, empty, overChunk, traced)
	if withPulses == 0 || withoutPulses == 0 || empty == 0 || overChunk == 0 || traced == 0 {
		t.Fatal("the cases do not cover pulse counters present and absent, an empty vector, an answer over a chunk and a trace")
	}
}

// TestAnswerNameLargerThanChunk: a net name longer than a chunk, all of it
// escaped, still encodes as encoding/json writes it.
func TestAnswerNameLargerThanChunk(t *testing.T) {
	c := sta.NewCircuit(sta.SynthLibrary(1))
	in := c.Input(strings.Repeat("<", answerChunk))
	out, err := c.AddGate("g", "inv", strings.Repeat("é ", answerChunk/4), in)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(out)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(context.Background(), []sta.PIEvent{{Net: in, Dir: waveform.Falling, TT: 300e-12}}, sta.Proximity, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := &call{compiled: p, mode: sta.Proximity, nets: netsAll}
	a, err := cl.answer(batchAnswer, "proximity", res, res)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "batch", answerBytes(t, a), refEncode(t, BatchResponse{
		Mode: "proximity", Results: []VectorResult{refVector(cl, res), refVector(cl, res)},
	}))
}

// discardWriter is a ResponseWriter that drops what it is sent and keeps
// only sizes: a test reads how an answer was written, and a benchmark
// charges the handler with what it allocates, not with a copy of the body.
type discardWriter struct {
	h                      http.Header
	status                 int
	bytes, writes, largest int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	w.writes++
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// fullAnswer analyzes a full-activity vector on SynthRandom(16, nGates) and
// returns a call reporting scope and the result.
func fullAnswer(t testing.TB, nGates int, scope netScope) (*call, *sta.Result) {
	t.Helper()
	circuit, err := sta.SynthRandom(16, nGates, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := circuit.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(context.Background(), sta.SynthEvents(circuit, 1), sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &call{compiled: p, mode: sta.Proximity, nets: scope}, res
}

// TestAnswerStreamsInChunks: an answer of many chunks goes out in writes of
// at most one chunk, never as one whole-vector or whole-answer buffer.
func TestAnswerStreamsInChunks(t *testing.T) {
	c, res := fullAnswer(t, 3000, netsAll)
	a, err := c.answer(batchAnswer, "proximity", res, res, res)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	a.writeTo(w)
	if w.largest > answerChunk {
		t.Fatalf("a write of %d bytes, over the %d-byte chunk", w.largest, answerChunk)
	}
	if want := len(refEncode(t, BatchResponse{Mode: "proximity", Results: []VectorResult{
		refVector(c, res), refVector(c, res), refVector(c, res)}})); w.bytes != want {
		t.Fatalf("streamed %d bytes, want %d", w.bytes, want)
	}
	if w.writes < w.bytes/answerChunk {
		t.Fatalf("%d writes for %d bytes", w.writes, w.bytes)
	}
}

// TestAnswerAllocsIndependentOfSize: encoding a full-vector answer
// allocates the same on a netlist ten times larger, so nothing is
// allocated per arrival.
func TestAnswerAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, scope := range []netScope{netsOutputs, netsAll} {
		var allocs [2]float64
		var arrivals [2]int
		for i, nGates := range []int{400, 4000} {
			c, res := fullAnswer(t, nGates, scope)
			arrivals[i] = len(refVector(c, res).Arrivals)
			w := &discardWriter{h: http.Header{}}
			allocs[i] = testing.AllocsPerRun(20, func() {
				a, err := c.answer(analyzeAnswer, "proximity", res)
				if err != nil {
					t.Fatal(err)
				}
				a.writeTo(w)
			})
		}
		t.Logf("nets=%d: %v allocs for %d arrivals, %v for %d", scope, allocs[0], arrivals[0], allocs[1], arrivals[1])
		if arrivals[1] < 5*arrivals[0] {
			t.Fatalf("the larger netlist reports %d arrivals against %d: the sizes do not differ enough", arrivals[1], arrivals[0])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("nets=%d: %v allocs on the small netlist, %v on the large one", scope, allocs[0], allocs[1])
		}
	}
}

// TestAnswerRefusesNonFinite: a result whose answer would carry a value
// JSON cannot hold is refused with a 500 before a byte is written.
func TestAnswerRefusesNonFinite(t *testing.T) {
	c, res := fullAnswer(t, 50, netsAll)
	pi := c.compiled.Circuit().PIs[0]
	bad, err := c.compiled.Analyze(context.Background(),
		[]sta.PIEvent{{Net: pi, Dir: waveform.Rising, TT: 1e300}}, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, results := range [][]*sta.Result{{bad}, {res, bad}} {
		_, err := c.answer(batchAnswer, "proximity", results...)
		var se *statusError
		if !errors.As(err, &se) || se.status != http.StatusInternalServerError || !strings.Contains(se.msg, pi.Name) {
			t.Fatalf("answer of a non-finite arrival: %v", err)
		}
	}
	if _, err := cornerArrivals(bad, c.reported()); err == nil {
		t.Fatal("a corner with a non-finite arrival encoded")
	}
}

// infDual is a dual backend whose delay ratio overflows: every proximity
// evaluation of a multi-input gate yields an infinite arrival time.
type infDual struct{}

func (infDual) Ratios(int, int, waveform.Direction, float64, float64, float64, float64, float64) (float64, float64, error) {
	return math.Inf(1), 1, nil
}

// TestNonFiniteAnswerIs500: over HTTP, an analysis whose answer would
// carry an infinite arrival is answered 500 with an ErrorResponse naming
// the net (json.Encoder refused such an answer, which went out as an empty
// 200), and the batch that carries it too.
func TestNonFiniteAnswerIs500(t *testing.T) {
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
	reg := NewRegistry(dir, 8)
	for _, cell := range []string{"nand2", "nand3"} {
		calc, err := reg.Get(cell)
		if err != nil {
			t.Fatal(err)
		}
		calc.Dual = infDual{}
	}
	_, ts := newTestServer(t, Config{Registry: reg})
	// The nand2 drives the output directly: a consumer would refuse the
	// infinite input with a 400 before any answer is built.
	var up UploadResponse
	if code := post(t, ts.URL+"/v1/netlists", UploadRequest{Netlist: "input a b\ngate g1 nand2 z a b\noutput z"}, &up); code != 200 {
		t.Fatalf("upload status %d", code)
	}
	vec := []Event{{Net: "a", Dir: "fall", TTPs: 300, TimePs: 0}, {Net: "b", Dir: "fall", TTPs: 250, TimePs: 15}}
	for _, r := range []struct {
		path string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: vec}},
		{"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: vec, KeepBaseline: true}},
		{"/v1/analyze:batch", BatchRequest{Netlist: up.ID, Vectors: [][]Event{vec[:1], vec}}},
	} {
		var er ErrorResponse
		code := post(t, ts.URL+r.path, r.body, &er)
		if code != http.StatusInternalServerError || !strings.Contains(er.Error, "not finite") || !strings.Contains(er.Error, `"z"`) {
			t.Fatalf("%s: status %d, error %q", r.path, code, er.Error)
		}
	}
}

// TestMCAnswerMirrorsWire: the Monte-Carlo answer the server encodes has
// MCResponse's fields, tags and order, and its corners MCCornerWire's, so a
// client decoding into the wire types reads every field; only the corner
// arrivals differ in type (encoded straight from the corner's result).
func TestMCAnswerMirrorsWire(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(mcAnswer{}), reflect.TypeOf(MCResponse{})},
		{reflect.TypeOf(mcCorner{}), reflect.TypeOf(MCCornerWire{})},
	} {
		got, want := pair[0], pair[1]
		if got.NumField() != want.NumField() {
			t.Fatalf("%v has %d fields, %v %d", got, got.NumField(), want, want.NumField())
		}
		for i := 0; i < got.NumField(); i++ {
			g, w := got.Field(i), want.Field(i)
			if g.Name != w.Name || g.Tag != w.Tag || (g.Type != w.Type && g.Name != "Corners" && g.Name != "Arrivals") {
				t.Errorf("%v field %d is %s %v `%s`, %v's is %s %v `%s`", got, i, g.Name, g.Type, g.Tag, want, w.Name, w.Type, w.Tag)
			}
		}
	}
}
