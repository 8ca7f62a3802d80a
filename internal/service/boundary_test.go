package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// postRaw sends an unmarshaled body (for malformed-payload cases the typed
// helper can't express) and returns status plus the decoded error message.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var er ErrorResponse
	json.Unmarshal(data, &er)
	return resp.StatusCode, er.Error
}

// TestNetsFieldValidated: an unrecognized nets value (e.g. the typo "al")
// must be a 400 naming the bad value — the old code silently treated
// anything but "all" as "outputs".
func TestNetsFieldValidated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	for _, endpoint := range []struct {
		url  string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Nets: "al", Vector: testVector(0)}},
		{"/v1/analyze:batch", BatchRequest{Netlist: up.ID, Nets: "al", Vectors: [][]Event{testVector(0)}}},
	} {
		var er ErrorResponse
		code := post(t, ts.URL+endpoint.url, endpoint.body, &er)
		if code != http.StatusBadRequest {
			t.Fatalf("%s with nets=al answered %d, want 400", endpoint.url, code)
		}
		if !strings.Contains(er.Error, `"al"`) {
			t.Fatalf("%s error %q does not name the bad nets value", endpoint.url, er.Error)
		}
	}
	// Valid spellings still work.
	for _, nets := range []string{"", "outputs", "all"} {
		var resp AnalyzeResponse
		if code := post(t, ts.URL+"/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Nets: nets, Vector: testVector(0)}, &resp); code != 200 {
			t.Fatalf("nets=%q answered %d, want 200", nets, code)
		}
	}
}

// TestTrailingGarbageRejected: the body must be exactly one JSON document;
// `{"netlist":"n1"}{"junk":1}` was previously half-read and accepted.
func TestTrailingGarbageRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	bodies := []struct {
		name, url, body string
	}{
		{"second document", "/v1/analyze",
			`{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]}{"junk":1}`},
		{"trailing token", "/v1/analyze",
			`{"netlist":"` + up.ID + `","vector":[{"net":"a","dir":"rise","ttPs":300,"timePs":0}]} true`},
		{"upload second document", "/v1/netlists",
			`{"netlist":"input a\ngate g1 inv y a\noutput y"}{"junk":1}`},
	}
	for _, tc := range bodies {
		code, msg := postRaw(t, ts.URL+tc.url, tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, code, msg)
		}
	}
	// JSON cannot carry NaN/Inf numbers; verify they are rejected at decode,
	// not smuggled into the engine.
	code, _ := postRaw(t, ts.URL+"/v1/analyze",
		`{"netlist":"`+up.ID+`","vector":[{"net":"a","dir":"rise","ttPs":NaN,"timePs":0}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("NaN literal answered %d, want 400", code)
	}
}

// TestOversizedBodyIs413: a body one byte over the endpoint's limit is
// refused 413 naming the limit, wherever the limit cuts it (inside the
// document or in what follows it); a body at the limit is read.
func TestOversizedBodyIs413(t *testing.T) {
	const analyzeLimit = 16 << 20 // New's cap on /v1/analyze bodies
	s, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	doc, err := json.Marshal(AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)})
	if err != nil {
		t.Fatal(err)
	}
	pad := func(prefix []byte, n int) string { return string(prefix) + strings.Repeat(" ", n-len(prefix)) }
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unterminated document", `{"netlist":"` + strings.Repeat("n", analyzeLimit+1-len(`{"netlist":"`)), http.StatusRequestEntityTooLarge},
		{"document then padding", pad(doc, analyzeLimit+1), http.StatusRequestEntityTooLarge},
		{"document padded to the limit", pad(doc, analyzeLimit), http.StatusOK},
	} {
		if len(tc.body) != analyzeLimit && len(tc.body) != analyzeLimit+1 {
			t.Fatalf("%s: body of %d bytes", tc.name, len(tc.body))
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(tc.body)))
		var er ErrorResponse
		json.Unmarshal(rec.Body.Bytes(), &er)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, er.Error, tc.status)
		}
		if tc.status == http.StatusRequestEntityTooLarge && !strings.Contains(er.Error, strconv.Itoa(analyzeLimit)) {
			t.Fatalf("%s: error %q does not name the %d-byte limit", tc.name, er.Error, analyzeLimit)
		}
	}
}

// TestEmptySlicesMarshalAsArrays: a netlist with no declared outputs must
// answer outputs:[] (not null), and its analyses arrivals:[] (not null).
func TestEmptySlicesMarshalAsArrays(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data, _ := json.Marshal(UploadRequest{Netlist: "input a\ngate g1 inv y a"})
	resp, err := http.Post(ts.URL+"/v1/netlists", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("upload status %d: %s", resp.StatusCode, raw)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc["outputs"]) != "[]" {
		t.Fatalf("outputs marshaled as %s, want []", doc["outputs"])
	}
	if string(doc["inputs"]) == "null" {
		t.Fatalf("inputs marshaled as null")
	}
	var up UploadResponse
	json.Unmarshal(raw, &up)

	body, _ := json.Marshal(AnalyzeRequest{Netlist: up.ID,
		Vector: []Event{{Net: "a", Dir: "rise", TTPs: 300, TimePs: 0}}})
	ar, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Body.Close()
	araw, _ := io.ReadAll(ar.Body)
	if ar.StatusCode != 200 {
		t.Fatalf("analyze status %d: %s", ar.StatusCode, araw)
	}
	var adoc map[string]json.RawMessage
	if err := json.Unmarshal(araw, &adoc); err != nil {
		t.Fatal(err)
	}
	if string(adoc["arrivals"]) != "[]" {
		t.Fatalf("arrivals marshaled as %s, want []", adoc["arrivals"])
	}
}

// TestDuplicateOutputDeclarationsDeduped: `output y\noutput y` must not
// duplicate y's arrivals in the response.
func TestDuplicateOutputDeclarationsDeduped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var up UploadResponse
	code := post(t, ts.URL+"/v1/netlists",
		UploadRequest{Netlist: "input a\ngate g1 inv y a\noutput y\noutput y y"}, &up)
	if code != 200 {
		t.Fatalf("upload status %d", code)
	}
	if len(up.Outputs) != 1 {
		t.Fatalf("outputs %v, want exactly [y]", up.Outputs)
	}
	var resp AnalyzeResponse
	if code := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID,
		Vector: []Event{{Net: "a", Dir: "rise", TTPs: 300, TimePs: 0}}}, &resp); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	seen := map[string]int{}
	for _, a := range resp.Arrivals {
		seen[a.Net+"/"+a.Dir]++
		if seen[a.Net+"/"+a.Dir] > 1 {
			t.Fatalf("arrival %s/%s reported %d times", a.Net, a.Dir, seen[a.Net+"/"+a.Dir])
		}
	}
	if len(resp.Arrivals) == 0 {
		t.Fatal("no arrivals — test is vacuous")
	}
}

// TestHTTPBoundaryContract mirrors the engine's rejection table at the HTTP
// boundary: every bad request is a 400/404 whose message names the
// offending field or net.
func TestHTTPBoundaryContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	cases := []struct {
		name     string
		url      string
		body     any
		want     int
		wantName string
	}{
		{"unknown netlist", "/v1/analyze",
			AnalyzeRequest{Netlist: "n999", Vector: testVector(0)}, 404, "n999"},
		{"unknown net", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "nope", Dir: "rise", TTPs: 100}}}, 400, "nope"},
		{"event on internal net", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "x", Dir: "rise", TTPs: 100}}}, 400, "x"},
		{"duplicate event", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{
				{Net: "a", Dir: "rise", TTPs: 100, TimePs: 0},
				{Net: "a", Dir: "rise", TTPs: 120, TimePs: 5}}}, 400, "a"},
		{"zero tt", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "rise", TTPs: 0}}}, 400, "a"},
		{"negative tt", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "rise", TTPs: -3}}}, 400, "a"},
		{"bad dir", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "sideways", TTPs: 100}}}, 400, "sideways"},
		{"bad mode", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Mode: "psychic", Vector: testVector(0)}, 400, "psychic"},
		{"bad nets", "/v1/analyze",
			AnalyzeRequest{Netlist: up.ID, Nets: "everything", Vector: testVector(0)}, 400, "everything"},
		{"empty vector", "/v1/analyze", AnalyzeRequest{Netlist: up.ID}, 400, "vector"},
		{"batch empty vector set", "/v1/analyze:batch", BatchRequest{Netlist: up.ID}, 400, "vector"},
		{"batch bad vector indexed", "/v1/analyze:batch",
			BatchRequest{Netlist: up.ID, Vectors: [][]Event{
				testVector(0), {{Net: "a", Dir: "rise", TTPs: -1}}}}, 400, "vector 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			if code := post(t, ts.URL+tc.url, tc.body, &er); code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, er.Error, tc.want)
			}
			if !strings.Contains(er.Error, tc.wantName) {
				t.Fatalf("error %q does not name %q", er.Error, tc.wantName)
			}
		})
	}
}
