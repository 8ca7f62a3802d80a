package difftest

// The http digest family pins stad's answer bytes: FNV-64a over the status
// code and the raw body of every analysis endpoint's answers, successes and
// refusals alike. The 400 and 404 answers pin each handler's checks and
// their order (the two-fault requests), the 429s pin admission order
// (unit-weight endpoints before their body is read, Monte-Carlo after
// validation), and the 500s pin a recovered engine panic's answer under a
// fixed X-Request-Id. Each server is fresh, so handle ids are deterministic.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// raw posts body (a string verbatim, anything else JSON-encoded) with an
// optional X-Request-Id and returns the status and the raw answer bytes.
func (r *httpRig) raw(t *testing.T, path, id string, body any) (int, []byte) {
	t.Helper()
	data, ok := body.(string)
	if !ok {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		data = string(b)
	}
	req, err := http.NewRequest("POST", r.ts.URL+path, strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// panicDual is a dual backend that always panics: every proximity
// evaluation of a multi-input gate fails inside the engine.
type panicDual struct{}

func (panicDual) Ratios(int, int, waveform.Direction, float64, float64, float64, float64, float64) (float64, float64, error) {
	panic("dual backend defect")
}

// httpPinner posts requests and records one digest per answer.
type httpPinner struct {
	t   *testing.T
	out []digestEntry
}

// pin sends one request and digests its status and body under key; it
// returns the body for requests whose answer names a handle.
func (p *httpPinner) pin(rig *httpRig, key, path, id string, body any) []byte {
	p.t.Helper()
	status, raw := rig.raw(p.t, path, id, body)
	d := newDigester()
	d.i(status)
	d.h.Write(raw)
	p.out = append(p.out, digestEntry{key: "http " + key, family: "http", sum: d.h.Sum64()})
	return raw
}

// handle decodes the id an upload or keepBaseline answer carries.
func (p *httpPinner) handle(raw []byte, field string) string {
	p.t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		p.t.Fatalf("answer %s: %v", raw, err)
	}
	id, ok := m[field].(string)
	if !ok || id == "" {
		p.t.Fatalf("answer carries no %s: %s", field, raw)
	}
	return id
}

// computeHTTPDigests pins the wire answers of /v1/analyze, :batch, :delta,
// :mc and /v1/explain (and the upload refusals) on three configs, then the
// refusal branches on the first.
func computeHTTPDigests(t *testing.T) []digestEntry {
	t.Helper()
	p := &httpPinner{t: t}
	rig := newHTTPRig(t, service.Config{}, nil)
	var firstNetlist, firstBaseline string
	var firstVec []service.Event
	for _, ci := range []int{0, 2, 6} {
		cfg := Configs(nConfigs)[ci]
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		var text strings.Builder
		if err := sta.WriteNetlist(&text, c); err != nil {
			t.Fatalf("%s: serialize: %v", cfg.Name, err)
		}
		name := cfg.Name
		id := p.handle(p.pin(rig, name+" upload", "/v1/netlists", "", service.UploadRequest{Netlist: text.String()}), "id")
		vec := cfg.WireVector(c, 0)
		for _, mode := range []string{"prox", "conv"} {
			for _, nets := range []string{"outputs", "all"} {
				for _, filt := range []bool{false, true} {
					p.pin(rig, fmt.Sprintf("%s analyze %s nets=%s %s", name, mode, nets, filterName(filt)), "/v1/analyze", "",
						service.AnalyzeRequest{Netlist: id, Mode: mode, Nets: nets, Vector: vec, PulseFilter: filt})
				}
			}
		}
		vecs := [][]service.Event{vec, cfg.WireVector(c, 1), cfg.PartialWireVector(c, 2)}
		for _, mode := range []string{"prox", "conv"} {
			for _, filt := range []bool{false, true} {
				p.pin(rig, fmt.Sprintf("%s batch %s %s", name, mode, filterName(filt)), "/v1/analyze:batch", "",
					service.BatchRequest{Netlist: id, Mode: mode, Nets: "all", Vectors: vecs, PulseFilter: filt})
			}
		}

		// Deltas against kept baselines, unfiltered and filtered.
		bl := p.handle(p.pin(rig, name+" analyze keepBaseline", "/v1/analyze", "",
			service.AnalyzeRequest{Netlist: id, Mode: wireMode(cfg.Mode), Vector: vec, KeepBaseline: true}), "baselineId")
		blf := p.handle(p.pin(rig, name+" analyze keepBaseline filter=on", "/v1/analyze", "",
			service.AnalyzeRequest{Netlist: id, Mode: wireMode(cfg.Mode), Nets: "all", Vector: vec, KeepBaseline: true, PulseFilter: true}), "baselineId")
		first, last := vec[0], vec[len(vec)-1]
		set := []service.Event{{Net: first.Net, Dir: first.Dir, TTPs: first.TTPs * 1.1, TimePs: first.TimePs + 7.5}}
		remove := []service.RemoveEvent{{Net: last.Net, Dir: last.Dir}}
		p.pin(rig, name+" delta set", "/v1/analyze:delta", "",
			service.DeltaRequest{Netlist: id, Baseline: bl, Nets: "all", Set: set})
		p.pin(rig, name+" delta remove", "/v1/analyze:delta", "",
			service.DeltaRequest{Baseline: bl, Remove: remove})
		chained := p.handle(p.pin(rig, name+" delta set keepBaseline", "/v1/analyze:delta", "",
			service.DeltaRequest{Baseline: bl, Set: set, KeepBaseline: true}), "baselineId")
		p.pin(rig, name+" delta chained remove", "/v1/analyze:delta", "",
			service.DeltaRequest{Baseline: chained, Nets: "all", Remove: remove})
		p.pin(rig, name+" delta set filter=on", "/v1/analyze:delta", "",
			service.DeltaRequest{Baseline: blf, Nets: "all", Set: set, PulseFilter: true})

		for _, filt := range []bool{false, true} {
			p.pin(rig, fmt.Sprintf("%s mc %s", name, filterName(filt)), "/v1/analyze:mc", "", service.MCRequest{
				Netlist: id, Mode: wireMode(cfg.Mode), Vector: vec, Samples: 16, Seed: uint64(cfg.Seed),
				Sigma: 0.05, Corners: []string{"slow", "typ", "fast"}, Bins: 8, PulseFilter: filt,
			})
			p.pin(rig, fmt.Sprintf("%s explain %s", name, filterName(filt)), "/v1/explain", "", service.ExplainRequest{
				Netlist: id, Mode: wireMode(cfg.Mode), Nets: c.NetsByName(), Vector: vec, PulseFilter: filt,
			})
		}
		if firstNetlist == "" {
			firstNetlist, firstBaseline, firstVec = id, bl, vec
		}
	}
	refusals(p, rig, firstNetlist, firstBaseline, firstVec)
	busy(p, firstVec)
	panics(p)
	return p.out
}

// refusals pins one request per 400 and 404 branch of each handler, plus
// two-fault requests that pin which check runs first.
func refusals(p *httpPinner, rig *httpRig, id, bl string, vec []service.Event) {
	ev := vec[0]
	badNet := []service.Event{{Net: "nosuchnet", Dir: "rise", TTPs: 300, TimePs: 0}}
	badDir := []service.Event{{Net: ev.Net, Dir: "up", TTPs: 300, TimePs: 0}}
	zeroTT := []service.Event{{Net: ev.Net, Dir: ev.Dir, TTPs: 0, TimePs: 0}}
	dup := []service.Event{ev, ev}
	for _, r := range []struct {
		key, path string
		body      any
	}{
		{"upload bad body", "/v1/netlists", `{"netlist":`},
		{"upload empty netlist", "/v1/netlists", service.UploadRequest{Netlist: " "}},
		{"upload bad cell name", "/v1/netlists", service.UploadRequest{Netlist: "input a\ngate g1 ../inv y a\noutput y"}},
		{"upload parse error", "/v1/netlists", service.UploadRequest{Netlist: "input a\ngate g1 inv\noutput y"}},

		{"analyze bad body", "/v1/analyze", `not json`},
		{"analyze unknown field", "/v1/analyze", `{"netlist":"` + id + `","bogus":1}`},
		{"analyze trailing data", "/v1/analyze", `{"netlist":"` + id + `"}{"junk":1}`},
		{"analyze unknown netlist", "/v1/analyze", service.AnalyzeRequest{Netlist: "n999", Vector: vec}},
		{"analyze bad mode", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Mode: "fast", Vector: vec}},
		{"analyze bad nets", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Nets: "al", Vector: vec}},
		{"analyze empty vector", "/v1/analyze", service.AnalyzeRequest{Netlist: id}},
		{"analyze unknown net", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: badNet}},
		{"analyze bad dir", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: badDir}},
		{"analyze engine zero tt", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: zeroTT}},
		{"analyze engine duplicate", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: dup}},
		{"analyze unknown netlist + bad mode", "/v1/analyze", service.AnalyzeRequest{Netlist: "n999", Mode: "fast", Vector: vec}},
		{"analyze bad mode + bad nets", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Mode: "fast", Nets: "al", Vector: vec}},
		{"analyze bad nets + unknown net", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Nets: "al", Vector: badNet}},

		{"batch bad body", "/v1/analyze:batch", `{"vectors":[[`},
		{"batch empty vector set", "/v1/analyze:batch", service.BatchRequest{Netlist: id}},
		{"batch unknown netlist", "/v1/analyze:batch", service.BatchRequest{Netlist: "n999", Vectors: [][]service.Event{vec}}},
		{"batch bad mode", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Mode: "fast", Vectors: [][]service.Event{vec}}},
		{"batch bad nets", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Nets: "al", Vectors: [][]service.Event{vec}}},
		{"batch unknown net", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Vectors: [][]service.Event{vec, badNet}}},
		{"batch empty vector", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Vectors: [][]service.Event{vec, {}}}},
		{"batch engine duplicate", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Vectors: [][]service.Event{vec, dup}}},
		{"batch empty vector set + unknown netlist", "/v1/analyze:batch", service.BatchRequest{Netlist: "n999"}},
		{"batch unknown netlist + bad nets", "/v1/analyze:batch", service.BatchRequest{Netlist: "n999", Nets: "al", Vectors: [][]service.Event{vec}}},

		{"delta bad body", "/v1/analyze:delta", `{"baseline":1}`},
		{"delta unknown baseline", "/v1/analyze:delta", service.DeltaRequest{Baseline: "b999", Set: vec[:1]}},
		{"delta netlist mismatch", "/v1/analyze:delta", service.DeltaRequest{Netlist: "n2", Baseline: bl, Set: vec[:1]}},
		{"delta bad nets", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Nets: "al", Set: vec[:1]}},
		{"delta set unknown net", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Set: badNet}},
		{"delta set bad dir", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Set: badDir}},
		{"delta remove unknown net", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Remove: []service.RemoveEvent{{Net: "nosuchnet", Dir: "rise"}}}},
		{"delta remove bad dir", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Remove: []service.RemoveEvent{{Net: ev.Net, Dir: "up"}}}},
		{"delta engine empty edit", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl}},
		{"delta engine remove absent", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Remove: []service.RemoveEvent{{Net: ev.Net, Dir: flip(ev.Dir)}}}},
		{"delta engine filter mismatch", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Set: vec[:1], PulseFilter: true}},
		{"delta unknown baseline + netlist mismatch", "/v1/analyze:delta", service.DeltaRequest{Netlist: "n2", Baseline: "b999", Set: vec[:1]}},
		{"delta netlist mismatch + bad nets", "/v1/analyze:delta", service.DeltaRequest{Netlist: "n2", Baseline: bl, Nets: "al", Set: vec[:1]}},
		{"delta bad nets + unknown net", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Nets: "al", Set: badNet}},
		{"delta set unknown net + remove unknown net", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Set: badNet, Remove: []service.RemoveEvent{{Net: "other", Dir: "rise"}}}},

		{"mc bad body", "/v1/analyze:mc", `{"samples":"many"}`},
		{"mc zero samples", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec}},
		{"mc too many samples", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 1 << 20}},
		{"mc negative sigma", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 4, Sigma: -1}},
		{"mc negative bins", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 4, Bins: -1}},
		{"mc unknown netlist", "/v1/analyze:mc", service.MCRequest{Netlist: "n999", Vector: vec, Samples: 4}},
		{"mc bad mode", "/v1/analyze:mc", service.MCRequest{Netlist: id, Mode: "fast", Vector: vec, Samples: 4}},
		{"mc empty vector", "/v1/analyze:mc", service.MCRequest{Netlist: id, Samples: 4}},
		{"mc unknown net", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: badNet, Samples: 4}},
		{"mc engine unknown corner", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 4, Corners: []string{"tepid"}}},
		{"mc engine duplicate", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: dup, Samples: 4}},
		{"mc zero samples + unknown netlist", "/v1/analyze:mc", service.MCRequest{Netlist: "n999", Vector: vec}},
		{"mc negative sigma + negative bins", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 4, Sigma: -1, Bins: -1}},
		{"mc unknown netlist + bad mode", "/v1/analyze:mc", service.MCRequest{Netlist: "n999", Mode: "fast", Vector: vec, Samples: 4}},
		{"mc bad mode + unknown net", "/v1/analyze:mc", service.MCRequest{Netlist: id, Mode: "fast", Vector: badNet, Samples: 4}},

		{"explain bad body", "/v1/explain", `{"nets":"y"}`},
		{"explain no nets", "/v1/explain", service.ExplainRequest{Netlist: id, Vector: vec}},
		{"explain unknown netlist", "/v1/explain", service.ExplainRequest{Netlist: "n999", Nets: []string{ev.Net}, Vector: vec}},
		{"explain bad mode", "/v1/explain", service.ExplainRequest{Netlist: id, Mode: "fast", Nets: []string{ev.Net}, Vector: vec}},
		{"explain empty vector", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{ev.Net}}},
		{"explain unknown net", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{ev.Net}, Vector: badNet}},
		{"explain engine duplicate", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{ev.Net}, Vector: dup}},
		{"explain unknown explained net", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{"nosuchnet"}, Vector: vec}},
		{"explain no nets + unknown netlist", "/v1/explain", service.ExplainRequest{Netlist: "n999", Vector: vec}},
		{"explain unknown netlist + bad mode", "/v1/explain", service.ExplainRequest{Netlist: "n999", Mode: "fast", Nets: []string{ev.Net}, Vector: vec}},
		{"explain bad mode + unknown net", "/v1/explain", service.ExplainRequest{Netlist: id, Mode: "fast", Nets: []string{ev.Net}, Vector: badNet}},
	} {
		p.pin(rig, "refuse "+r.key, r.path, "", r.body)
	}
}

// flip names the other transition direction.
func flip(dir string) string {
	if dir == "rise" {
		return "fall"
	}
	return "rise"
}

// busy pins the 429 of every admitted endpoint on a one-token server whose
// token a request blocked mid-body holds, and the two-fault requests that
// show where admission sits: a malformed body still meets the unit-weight
// 429 (admitted before the body is read), an invalid or unresolvable
// Monte-Carlo request its 400 or 404 (admitted after validation).
func busy(p *httpPinner, vec []service.Event) {
	t := p.t
	rig := newHTTPRig(t, service.Config{MaxInflight: 1}, nil)
	cfg := Configs(nConfigs)[0]
	c, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := sta.WriteNetlist(&text, c); err != nil {
		t.Fatal(err)
	}
	id := p.handle(p.pin(rig, "busy upload", "/v1/netlists", "", service.UploadRequest{Netlist: text.String()}), "id")

	pr, pw := io.Pipe()
	held := make(chan struct{})
	go func() {
		defer close(held)
		rig.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/analyze", pr))
	}()
	for deadline := time.Now().Add(10 * time.Second); rig.srv.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocked request was never admitted")
		}
	}
	for _, r := range []struct {
		key, path string
		body      any
	}{
		{"netlists", "/v1/netlists", service.UploadRequest{Netlist: text.String()}},
		{"analyze", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: vec}},
		{"batch", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Vectors: [][]service.Event{vec}}},
		{"delta", "/v1/analyze:delta", service.DeltaRequest{Baseline: "b1", Set: vec[:1]}},
		{"mc", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 8, Sigma: 0.05}},
		{"explain", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{vec[0].Net}, Vector: vec}},
		{"analyze bad body", "/v1/analyze", `not json`},
		{"mc zero samples", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec}},
		{"mc unknown netlist", "/v1/analyze:mc", service.MCRequest{Netlist: "n999", Vector: vec, Samples: 8}},
		{"mc unknown net", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: []service.Event{{Net: "nosuchnet", Dir: "rise", TTPs: 300}}, Samples: 8}},
	} {
		p.pin(rig, "busy "+r.key, r.path, "", r.body)
	}
	pw.Close()
	<-held
}

// panics pins the 500 each endpoint answers when the engine recovers a
// panic: a single nand2 whose dual backend panics, a serial engine so the
// failing gate, vector and sample are deterministic, and a fixed request id
// (the 500 names it).
func panics(p *httpPinner) {
	rig := newHTTPRig(p.t, service.Config{Workers: 1}, func(name string, calc *core.Calculator) {
		if name == "nand2" {
			calc.Dual = panicDual{}
		}
	})
	id := p.handle(p.pin(rig, "panic upload", "/v1/netlists", "", service.UploadRequest{Netlist: "input a b\ngate g1 nand2 y a b\noutput y"}), "id")
	a := service.Event{Net: "a", Dir: "fall", TTPs: 300, TimePs: 0}
	b := service.Event{Net: "b", Dir: "fall", TTPs: 250, TimePs: 15}
	vec := []service.Event{a, b}
	bl := p.handle(p.pin(rig, "panic analyze single input keepBaseline", "/v1/analyze", "digest-panic-baseline",
		service.AnalyzeRequest{Netlist: id, Vector: []service.Event{a}, KeepBaseline: true}), "baselineId")
	for _, r := range []struct {
		key, path string
		body      any
	}{
		{"analyze", "/v1/analyze", service.AnalyzeRequest{Netlist: id, Vector: vec}},
		{"batch", "/v1/analyze:batch", service.BatchRequest{Netlist: id, Vectors: [][]service.Event{{a}, vec}}},
		{"delta", "/v1/analyze:delta", service.DeltaRequest{Baseline: bl, Set: []service.Event{b}}},
		{"mc", "/v1/analyze:mc", service.MCRequest{Netlist: id, Vector: vec, Samples: 4, Sigma: 0.05}},
		{"explain", "/v1/explain", service.ExplainRequest{Netlist: id, Nets: []string{"y"}, Vector: vec}},
	} {
		p.pin(rig, "panic "+r.key, r.path, "digest-panic-"+r.key, r.body)
	}
}
