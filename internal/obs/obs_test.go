package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A nil trace must be fully inert: every method callable, zero recorded.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	sp := tr.Begin(0, 0, "cat", "span").Arg("k", 1)
	sp.End()
	tr.Instant(0, 0, "cat", "marker", nil)
	tr.NameProcess(0, "p")
	tr.NameThread(0, 0, "t")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("nil trace JSON invalid: %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.NameProcess(1, "vector 1")
	tr.NameThread(1, 0, "worker 0")
	outer := tr.Begin(1, 0, "sta", "level 0").Arg("gates", 12)
	inner := tr.Begin(1, 0, "sta", "commit")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	tr.Instant(1, 0, "sta", "done", map[string]any{"ok": true, "rate": 1.5, "mode": "prox"})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, buf.String())
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	// The inner span must lie inside the outer one.
	var lvl, commit *TraceEvent
	for i := range evs {
		switch evs[i].Name {
		case "level 0":
			lvl = &evs[i]
		case "commit":
			commit = &evs[i]
		}
	}
	if lvl == nil || commit == nil {
		t.Fatal("missing spans")
	}
	if commit.TS < lvl.TS || commit.TS+commit.Dur > lvl.TS+lvl.Dur+0.002 {
		t.Fatalf("commit [%g,%g] not nested in level [%g,%g]",
			commit.TS, commit.TS+commit.Dur, lvl.TS, lvl.TS+lvl.Dur)
	}
	if lvl.Args["gates"] != float64(12) {
		t.Fatalf("span arg lost: %v", lvl.Args)
	}
}

// MarshalJSON must produce the same document as WriteJSON so traces embed
// into service responses verbatim.
func TestTraceMarshalJSON(t *testing.T) {
	tr := NewTrace()
	tr.Begin(0, 0, "c", "s").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), m) {
		t.Fatalf("MarshalJSON differs from WriteJSON:\n%s\n%s", buf.Bytes(), m)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents":[`,
		"unknown phase":   `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0,"tid":0}]}`,
		"empty name":      `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`,
		"negative ts":     `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		"negative dur":    `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"partial overlap": `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":0}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
}

func TestPhaseTimes(t *testing.T) {
	var pt PhaseTimes
	pt.Add(PhaseEval, 5*time.Millisecond)
	pt.Add(PhaseEval, 3*time.Millisecond)
	pt.Add(PhaseCones, 2*time.Millisecond)
	pt.Add(PhaseSeed, -time.Second) // clamped
	if pt[PhaseEval] != 8*time.Millisecond {
		t.Fatalf("eval = %v", pt[PhaseEval])
	}
	if pt[PhaseSeed] != 0 {
		t.Fatalf("negative add not clamped: %v", pt[PhaseSeed])
	}
	if got := pt.Sum(); got != 10*time.Millisecond {
		t.Fatalf("Sum = %v, want 10ms", got)
	}
	for _, p := range Phases() {
		if p.String() == "" {
			t.Fatalf("phase %d has no name", p)
		}
	}
}
