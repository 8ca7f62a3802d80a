package service

// The vector answers of /v1/analyze, /v1/analyze:delta and
// /v1/analyze:batch are appended straight from the engine's results and
// streamed to the client, vector by vector, through one pooled chunk of
// answerChunk bytes: however large the answer, its encoding holds no more
// memory than that. The bytes are the ones encoding/json writes for
// AnalyzeResponse, DeltaResponse and BatchResponse, which stay the wire
// types clients decode into: the same field order (VectorResult's fields
// promoted), omitempty, HTML-safe strings, float formatting and trailing
// newline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// answerChunk is the size of the buffer an answer streams through.
const answerChunk = 32 << 10

// arrivalRoom bounds one arrival's bytes besides its escaped net name: the
// keys, "falling", two floats of at most 25 characters and an int.
const arrivalRoom = 160

// fieldRoom bounds the bytes of the fixed fields between two runs of
// arrivals: a vector's counters, a delta's reuse counts, the separators.
const fieldRoom = 512

// chunks pools the answer chunks (*[]byte, so a Put allocates nothing).
var chunks = sync.Pool{New: func() any {
	b := make([]byte, 0, answerChunk)
	return &b
}}

// bothDirs is the order an answer lists a net's arrivals in.
var bothDirs = [2]waveform.Direction{waveform.Rising, waveform.Falling}

// answerKind selects which wire type a vectorAnswer writes.
type answerKind int

const (
	analyzeAnswer answerKind = iota // AnalyzeResponse
	deltaAnswer                     // DeltaResponse
	batchAnswer                     // BatchResponse
)

// vectorAnswer is one vector endpoint's answer, ready to stream: every
// value it will write is known to encode, so writing it cannot fail half
// way for any reason but the client's connection.
type vectorAnswer struct {
	kind       answerKind
	mode       string
	results    []*sta.Result
	nets       []*sta.Net // the reported nets, in answer order
	baselineID string
	trace      []byte // the ?trace=1 document as json.Marshal writes it
}

// answer prepares the answer of the call's results. It refuses, with a
// 500, an arrival whose picosecond time or transition time is not finite
// (encoding/json refuses those, and a stream cannot take back the bytes
// before one), and it marshals a ?trace=1 document before any byte is
// written.
func (c *call) answer(kind answerKind, mode string, results ...*sta.Result) (*vectorAnswer, error) {
	a := &vectorAnswer{kind: kind, mode: mode, results: results, nets: c.reported()}
	if err := checkFinite(results, a.nets); err != nil {
		return nil, err
	}
	if tr := c.inlineTrace(); tr != nil && kind != batchAnswer {
		b, err := json.Marshal(tr)
		if err != nil {
			return nil, &statusError{http.StatusInternalServerError, fmt.Sprintf("internal error: trace: %v", err)}
		}
		a.trace = b
	}
	return a, nil
}

// reported lists the nets the call's answers report, in answer order: the
// primary outputs in declaration order, or every net by sorted name.
func (c *call) reported() []*sta.Net {
	circuit := c.compiled.Circuit()
	if c.nets != netsAll {
		return circuit.POs
	}
	names := circuit.NetsByName()
	nets := make([]*sta.Net, len(names))
	for i, name := range names {
		nets[i] = circuit.Net(name)
	}
	return nets
}

// checkFinite finds the first reported arrival a JSON answer cannot carry.
func checkFinite(results []*sta.Result, nets []*sta.Net) error {
	for _, res := range results {
		for _, n := range nets {
			for _, dir := range bothDirs {
				a, ok := res.Arrival(n, dir)
				if !ok {
					continue
				}
				if t, tt := a.Time*1e12, a.TT*1e12; !finite(t) || !finite(tt) {
					return &statusError{http.StatusInternalServerError, fmt.Sprintf(
						"internal error: the %s arrival on net %q is not finite (time %v ps, transition time %v ps)",
						dir, n.Name, t, tt)}
				}
			}
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// writeTo streams the answer to w.
func (v *vectorAnswer) writeTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	chunk := chunks.Get().(*[]byte)
	defer chunks.Put(chunk)
	a := &answerWriter{w: w, chunk: *chunk, buf: (*chunk)[:0]}
	a.buf = append(a.buf, `{"mode":`...)
	a.buf = appendString(a.buf, v.mode)
	if v.kind == batchAnswer {
		a.buf = append(a.buf, `,"results":[`...)
		for i, res := range v.results {
			if i > 0 {
				a.buf = append(a.buf, ',')
			}
			a.buf = append(a.buf, '{')
			a.vector(res, v.nets)
			a.buf = append(a.buf, '}')
		}
		a.buf = append(a.buf, ']')
	} else {
		res := v.results[0]
		a.buf = append(a.buf, ',')
		a.vector(res, v.nets)
		if v.kind == deltaAnswer {
			a.buf = appendInt(a.buf, `,"gatesReevaluated":`, res.Stats.GatesReevaluated)
			a.buf = appendInt(a.buf, `,"gatesReused":`, res.Stats.GatesReused)
		}
		if v.baselineID != "" {
			a.room(fieldRoom + 6*len(v.baselineID))
			a.buf = append(a.buf, `,"baselineId":`...)
			a.buf = appendString(a.buf, v.baselineID)
		}
		if v.trace != nil {
			a.buf = append(a.buf, `,"trace":`...)
			a.raw(v.trace)
		}
	}
	a.room(2)
	a.buf = append(a.buf, "}\n"...)
	a.flush()
}

// cornerArrivals encodes one Monte-Carlo corner's arrivals array with the
// code the streamed answers use.
func cornerArrivals(res *sta.Result, nets []*sta.Net) (json.RawMessage, error) {
	if err := checkFinite([]*sta.Result{res}, nets); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	chunk := chunks.Get().(*[]byte)
	defer chunks.Put(chunk)
	a := &answerWriter{w: &out, chunk: *chunk, buf: (*chunk)[:0]}
	a.arrivals(res, nets)
	a.flush()
	return out.Bytes(), nil
}

// answerWriter appends an answer into its chunk and writes the chunk out
// whenever the next piece might not fit. After a failed write it stops
// writing: the client is gone, and the rest of the answer is dropped.
type answerWriter struct {
	w     io.Writer
	chunk []byte // the pooled chunk; buf is chunk[:0] after every flush
	buf   []byte
	err   error
}

// room flushes the chunk unless n more bytes fit in it. A piece larger than
// a whole chunk (a net name of kilobytes) grows buf past the chunk until the
// next room flushes it.
func (a *answerWriter) room(n int) {
	if len(a.buf)+n > cap(a.chunk) {
		a.flush()
	}
}

func (a *answerWriter) flush() {
	if len(a.buf) > 0 {
		a.write(a.buf)
	}
	a.buf = a.chunk[:0]
}

func (a *answerWriter) write(p []byte) {
	if a.err == nil {
		_, a.err = a.w.Write(p)
	}
}

// raw adds p, writing it directly when it is larger than a chunk.
func (a *answerWriter) raw(p []byte) {
	a.room(len(p))
	if len(p) > cap(a.chunk) {
		a.write(p)
		return
	}
	a.buf = append(a.buf, p...)
}

// vector appends one result's VectorResult fields, without braces.
func (a *answerWriter) vector(res *sta.Result, nets []*sta.Net) {
	a.room(fieldRoom)
	a.buf = append(a.buf, `"arrivals":`...)
	a.arrivals(res, nets)
	a.room(fieldRoom)
	a.buf = appendCounters(a.buf, &res.Stats)
}

// arrivals appends one result's arrivals on nets as an Arrival array:
// each net's rising arrival before its falling one, [] when there are none.
func (a *answerWriter) arrivals(res *sta.Result, nets []*sta.Net) {
	a.room(1)
	a.buf = append(a.buf, '[')
	sep := false
	for _, n := range nets {
		if a.err != nil {
			return
		}
		for _, dir := range bothDirs {
			arr, ok := res.Arrival(n, dir)
			if !ok {
				continue
			}
			a.room(arrivalRoom + 6*len(n.Name))
			if sep {
				a.buf = append(a.buf, ',')
			}
			sep = true
			a.buf = appendArrival(a.buf, n.Name, dir, arr.Time*1e12, arr.TT*1e12, arr.UsedInputs)
		}
	}
	a.room(1)
	a.buf = append(a.buf, ']')
}

// appendArrival appends one Arrival object.
func appendArrival(b []byte, net string, dir waveform.Direction, timePs, ttPs float64, usedInputs int) []byte {
	b = append(b, `{"net":`...)
	b = appendString(b, net)
	b = append(b, `,"dir":"`...)
	b = append(b, dir.String()...)
	b = append(b, `","timePs":`...)
	b = appendFloat(b, timePs)
	b = append(b, `,"ttPs":`...)
	b = appendFloat(b, ttPs)
	b = appendInt(b, `,"usedInputs":`, usedInputs)
	return append(b, '}')
}

// appendCounters appends the VectorResult fields after the arrivals.
func appendCounters(b []byte, st *sta.Stats) []byte {
	b = appendInt(b, `,"gatesEvaluated":`, st.GatesEvaluated)
	b = appendInt(b, `,"proximityEvals":`, st.ProximityEvals)
	b = appendInt(b, `,"singleArcEvals":`, st.SingleArcEvals)
	if st.PulsesFiltered != 0 {
		b = appendInt(b, `,"pulsesFiltered":`, st.PulsesFiltered)
	}
	if st.PulsesDegraded != 0 {
		b = appendInt(b, `,"pulsesDegraded":`, st.PulsesDegraded)
	}
	if st.PulsesUnjudged != 0 {
		b = appendInt(b, `,"pulsesUnjudged":`, st.PulsesUnjudged)
	}
	return b
}

// appendInt appends a key (with its separator and colon) and an int.
func appendInt(b []byte, key string, v int) []byte {
	b = append(b, key...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendFloat appends a finite float64 as encoding/json writes it: 'f'
// format, or 'e' outside [1e-6, 1e21) with e-09 shortened to e-9.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as encoding/json writes a string: a string of
// printable ASCII that needs no escape (none of " \ < > &) is copied, and
// any other goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
