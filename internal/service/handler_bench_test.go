package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// BenchmarkBatchHandler serves stadbench sweep-full's request in process: a
// batch of two full-activity vectors on the 12,000-gate tiled netlist
// (sta.SynthTiled(240, 8, 50)), from the request body to the answer's last
// byte, through ServeHTTP into a writer that discards the answer.
func BenchmarkBatchHandler(b *testing.B) {
	dir := b.TempDir()
	writeSynthLibrary(b, dir, "nand2", "nand3", "inv")
	srv := New(Config{Registry: NewRegistry(dir, 8)})
	circuit, err := sta.SynthTiled(240, 8, 50, 17)
	if err != nil {
		b.Fatal(err)
	}
	var text strings.Builder
	if err := sta.WriteNetlist(&text, circuit); err != nil {
		b.Fatal(err)
	}
	upBody, _ := json.Marshal(UploadRequest{Netlist: text.String()})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/netlists", bytes.NewReader(upBody)))
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != 200 {
		b.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	req := BatchRequest{Netlist: up.ID}
	for seed := int64(1); seed <= 2; seed++ {
		var vec []Event
		for _, ev := range sta.SynthEvents(circuit, seed) {
			dir := "fall"
			if ev.Dir == waveform.Rising {
				dir = "rise"
			}
			vec = append(vec, Event{Net: ev.Net.Name, Dir: dir, TTPs: ev.TT * 1e12, TimePs: ev.Time * 1e12})
		}
		req.Vectors = append(req.Vectors, vec)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status = 0
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/analyze:batch", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			b.Fatalf("batch status %d", w.status)
		}
	}
}
