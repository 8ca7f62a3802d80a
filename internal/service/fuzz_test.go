package service

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/macromodel"
)

// fuzzPaths are the POST endpoints FuzzServerJSON exercises. The selector
// byte indexes this list so arbitrary fuzz bytes cannot form an invalid
// request URL (httptest.NewRequest panics on those). New endpoints are
// appended, so the checked-in corpus's selectors keep their meaning.
var fuzzPaths = []string{"/v1/netlists", "/v1/analyze", "/v1/analyze:batch",
	"/v1/analyze:delta", "/v1/analyze:mc", "/v1/explain"}

// FuzzServerJSON throws arbitrary bodies at the service's POST endpoints
// through ServeHTTP directly (no network) and checks the boundary contract:
// no panic, only documented status codes, every answer a JSON document, and
// every non-200 answer an ErrorResponse with a non-empty message.
func FuzzServerJSON(f *testing.F) {
	dir := f.TempDir()
	for _, cell := range []struct {
		name string
		kind string
		n    int
	}{{"inv", "inv", 1}, {"nand2", "nand", 2}, {"nand3", "nand", 3}} {
		m := macromodel.SynthModel(cell.kind, cell.n)
		if err := m.Save(filepath.Join(dir, cell.name+".json")); err != nil {
			f.Fatal(err)
		}
	}
	srv := New(Config{Registry: NewRegistry(dir, 8), MaxNetlists: 32})

	// Preload one netlist and one baseline so seed bodies can reference
	// live IDs. Fuzzed uploads and kept baselines may later evict them
	// (MaxNetlists, MaxBaselines), which only turns those requests into
	// 404s — still within the contract.
	upBody, _ := json.Marshal(UploadRequest{Netlist: testNetlist})
	upReq := httptest.NewRequest("POST", "/v1/netlists", strings.NewReader(string(upBody)))
	upRec := httptest.NewRecorder()
	srv.ServeHTTP(upRec, upReq)
	var up UploadResponse
	if err := json.Unmarshal(upRec.Body.Bytes(), &up); err != nil || upRec.Code != 200 {
		f.Fatalf("seed upload failed: status %d body %s", upRec.Code, upRec.Body)
	}
	blBody := `{"netlist":"` + up.ID + `","keepBaseline":true,"vector":[{"net":"a","dir":"fall","ttPs":300,"timePs":0},{"net":"b","dir":"fall","ttPs":250,"timePs":15}]}`
	blRec := httptest.NewRecorder()
	srv.ServeHTTP(blRec, httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(blBody)))
	var bl AnalyzeResponse
	if err := json.Unmarshal(blRec.Body.Bytes(), &bl); err != nil || blRec.Code != 200 || bl.BaselineID == "" {
		f.Fatalf("seed baseline failed: status %d body %s", blRec.Code, blRec.Body)
	}

	seeds := []struct {
		sel  byte
		body string
	}{
		{0, `{"netlist":"input a\ngate g1 inv y a\noutput y"}`},
		{0, `{"netlist":""}`},
		{0, `{"netlist":"input a\ngate g1 inv y a\noutput y"}{"junk":1}`},
		{1, `{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]}`},
		{1, `{"netlist":"` + up.ID + `","mode":"conv","nets":"all","vector":[{"net":"a","dir":"fall","ttPs":200,"timePs":5}]}`},
		{1, `{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":NaN,"timePs":0}]}`},
		{1, `{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":-3,"timePs":0}]}`},
		{1, `{"netlist":"n999","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]}`},
		{1, `{"netlist":"` + up.ID + `","nets":"al","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]}`},
		{2, `{"netlist":"` + up.ID + `","vectors":[[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]]}`},
		{2, `{"netlist":"` + up.ID + `","vectors":[]}`},
		{2, `not json at all`},
		{1, `[]`},
		{0, `{"unknown_field":true}`},
		{3, `{"baseline":"` + bl.BaselineID + `","nets":"all","set":[{"net":"c","dir":"fall","ttPs":350,"timePs":40}]}`},
		{3, `{"baseline":"` + bl.BaselineID + `","remove":[{"net":"b","dir":"fall"}],"keepBaseline":true}`},
		{3, `{"netlist":"n999","baseline":"` + bl.BaselineID + `","pulseFilter":true,"set":[{"net":"a","dir":"r","ttPs":1,"timePs":0}]}`},
		{4, `{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}],"samples":4,"seed":7,"sigma":0.05,"corners":["slow","fast"],"bins":4}`},
		{4, `{"netlist":"` + up.ID + `","mode":"conv","vector":[{"net":"d","dir":"fall","ttPs":200,"timePs":0}],"samples":2,"pulseFilter":true}`},
		{4, `{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}],"samples":0,"sigma":-1}`},
		{5, `{"netlist":"` + up.ID + `","nets":["x","z"],"vector":[{"net":"a","dir":"fall","ttPs":300,"timePs":0},{"net":"b","dir":"fall","ttPs":250,"timePs":15}]}`},
		{5, `{"netlist":"` + up.ID + `","nets":[],"pulseFilter":true,"vector":[{"net":"a","dir":"fall","ttPs":300,"timePs":0}]}`},
	}
	for _, s := range seeds {
		f.Add(s.sel, s.body)
	}

	f.Fuzz(func(t *testing.T, sel byte, body string) {
		if len(body) > 1<<16 {
			return
		}
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case 200, 400, 404, 429, 504:
		default:
			t.Fatalf("%s answered undocumented status %d: %s", path, rec.Code, rec.Body)
		}
		var doc any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s answered non-JSON body %q", path, rec.Body)
		}
		if rec.Code != 200 {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%s %d answer is not an ErrorResponse: %q", path, rec.Code, rec.Body)
			}
		}
	})
}
