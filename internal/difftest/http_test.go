package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// httpRig is the HTTP-vs-in-process oracle fixture: one registry over a
// synthetic model library on disk, one server mounted on it, and an
// in-process sta.Library built from the very same registry — both paths
// evaluate the identical loaded-from-JSON calculators, so results must be
// bit-identical, not merely close.
type httpRig struct {
	ts  *httptest.Server
	srv *service.Server
	lib *sta.Library
}

// newHTTPRig starts the server with cfg (its Registry is the rig's). prep,
// when non-nil, sees every loaded calculator before the server starts.
func newHTTPRig(t *testing.T, cfg service.Config, prep func(name string, calc *core.Calculator)) *httpRig {
	t.Helper()
	dir := t.TempDir()
	cells := map[string]*macromodel.GateModel{
		"inv":   macromodel.SynthModel("inv", 1),
		"nand2": macromodel.SynthModel("nand", 2),
		"nand3": macromodel.SynthModel("nand", 3),
	}
	for name, m := range cells {
		if err := m.Save(filepath.Join(dir, name+".json")); err != nil {
			t.Fatal(err)
		}
	}
	reg := service.NewRegistry(dir, 8)
	lib := sta.NewLibrary()
	for name := range cells {
		calc, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(name, calc)
		}
		lib.Add(name, calc)
	}
	cfg.Registry = reg
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &httpRig{ts: ts, srv: srv, lib: lib}
}

func (r *httpRig) post(t *testing.T, path string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(r.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// wireMode maps an engine mode to its wire spelling.
func wireMode(m sta.Mode) string {
	if m == sta.Conventional {
		return "conv"
	}
	return "prox"
}

// checkWireAgainstEngine requires the wire arrivals (picoseconds) to equal
// the engine result exactly under the same ×1e12 conversion.
func checkWireAgainstEngine(t *testing.T, label string, c *sta.Circuit, res *sta.Result, wire []service.Arrival) {
	t.Helper()
	engine := Arrivals(c, res)
	if len(wire) != len(engine) {
		t.Fatalf("%s: %d wire arrivals vs %d engine arrivals", label, len(wire), len(engine))
	}
	for _, wa := range wire {
		var dir waveform.Direction
		switch wa.Dir {
		case waveform.Rising.String():
			dir = waveform.Rising
		case waveform.Falling.String():
			dir = waveform.Falling
		default:
			t.Fatalf("%s: bad wire direction %q", label, wa.Dir)
		}
		ea, ok := engine[ArrivalKey{wa.Net, dir}]
		if !ok {
			t.Fatalf("%s: wire arrival %s/%s absent from engine result", label, wa.Net, wa.Dir)
		}
		if wa.TimePs != ea.Time*1e12 || wa.TTPs != ea.TT*1e12 || wa.UsedInputs != ea.UsedInputs {
			t.Fatalf("%s: %s/%s wire (%.9f ps, %.9f ps, %d) vs engine (%.9f ps, %.9f ps, %d)",
				label, wa.Net, wa.Dir, wa.TimePs, wa.TTPs, wa.UsedInputs,
				ea.Time*1e12, ea.TT*1e12, ea.UsedInputs)
		}
	}
}

// TestOracleHTTPVsInProcess sweeps the config set through the service:
// upload every circuit, run /v1/analyze (nets=all, so internal nets are
// compared too) and /v1/analyze:batch, and require bit-identity with the
// in-process engine over the same registry-loaded models.
func TestOracleHTTPVsInProcess(t *testing.T) {
	ctx := context.Background()
	rig := newHTTPRig(t, service.Config{}, nil)
	for _, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		var text strings.Builder
		if err := sta.WriteNetlist(&text, c); err != nil {
			t.Fatalf("%s: serialize: %v", cfg.Name, err)
		}
		// In-process reference over the registry-backed library.
		ref, err := sta.ParseNetlist(strings.NewReader(text.String()), rig.lib)
		if err != nil {
			t.Fatalf("%s: reparse: %v", cfg.Name, err)
		}
		var up service.UploadResponse
		if code := rig.post(t, "/v1/netlists", service.UploadRequest{Netlist: text.String()}, &up); code != 200 {
			t.Fatalf("%s: upload status %d", cfg.Name, code)
		}

		vec := cfg.WireVector(c, 0)
		evs, err := ToPIEvents(ref, vec)
		if err != nil {
			t.Fatalf("%s: events: %v", cfg.Name, err)
		}
		var resp service.AnalyzeResponse
		if code := rig.post(t, "/v1/analyze", service.AnalyzeRequest{
			Netlist: up.ID, Mode: wireMode(cfg.Mode), Nets: "all", Vector: vec,
		}, &resp); code != 200 {
			t.Fatalf("%s: analyze status %d", cfg.Name, code)
		}
		refP := compile(t, ref)
		res, err := refP.Analyze(ctx, evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: in-process: %v", cfg.Name, err)
		}
		checkWireAgainstEngine(t, cfg.Name+"/analyze", ref, res, resp.Arrivals)

		// The batch endpoint against per-vector in-process references.
		const nVec = 3
		vecs := make([][]service.Event, nVec)
		for k := range vecs {
			vecs[k] = cfg.WireVector(c, k)
		}
		var bresp service.BatchResponse
		if code := rig.post(t, "/v1/analyze:batch", service.BatchRequest{
			Netlist: up.ID, Mode: wireMode(cfg.Mode), Nets: "all", Vectors: vecs,
		}, &bresp); code != 200 {
			t.Fatalf("%s: batch status %d", cfg.Name, code)
		}
		if len(bresp.Results) != nVec {
			t.Fatalf("%s: %d batch results for %d vectors", cfg.Name, len(bresp.Results), nVec)
		}
		for k, vr := range bresp.Results {
			kevs, err := ToPIEvents(ref, vecs[k])
			if err != nil {
				t.Fatalf("%s: batch events %d: %v", cfg.Name, k, err)
			}
			kres, err := refP.Analyze(ctx, kevs, cfg.Mode, sta.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: in-process %d: %v", cfg.Name, k, err)
			}
			checkWireAgainstEngine(t, cfg.Name+"/batch", ref, kres, vr.Arrivals)
		}
	}
}
