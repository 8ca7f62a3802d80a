// Package obs is the engine's zero-dependency observability layer: cheap
// always-on phase timers that extend sta.Result.Stats, and an opt-in span
// recorder that emits Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// The design constraint is that the disabled path must cost nothing the hot
// path can feel: a nil *Trace is a valid, fully inert recorder — every
// method on it is a nil-check and a return — so the engine threads a
// possibly-nil *Trace through unconditionally and never branches on a
// separate "enabled" flag. Phase accounting (PhaseTimes) is a plain
// fixed-size array of duration accumulators with no locking; each analyze
// owns its own copy inside Result.Stats.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Phase identifies one accounting bucket of an analyze call. The buckets
// are disjoint wall-clock intervals, so for any single-threaded view their
// sum is bounded by the analyze wall time (asserted by the difftest stats
// oracle).
type Phase int

const (
	// PhaseCones is time spent waiting for the compiled handle's
	// net -> consuming-gate table, the one the propagation walk fans out
	// over (paid by the first walk on a handle, ~zero afterwards). It keeps
	// the name "cones" that phase histograms and traces already report.
	PhaseCones Phase = iota
	// PhaseSchedule is the walk's queueing: bucketing the consumers of the
	// seeded nets by level, then sorting each level's bucket into netlist
	// order. Queueing the fanout of committed outputs happens inside the
	// commit and counts there.
	PhaseSchedule
	// PhaseSeed is stimulus validation and primary-input arrival seeding
	// (for a delta: validating and applying the edit).
	PhaseSeed
	// PhaseEval is the per-level gate evaluation wall time, summed over
	// levels (the parallel region).
	PhaseEval
	// PhaseCommit is the serial netlist-order arrival commit, summed over
	// levels.
	PhaseCommit
	// PhaseGlitch is the Section-6 pulse-filtering work inside the commit
	// walk: detecting opposite-edge arrival pairs on a gate's output and
	// evaluating the inertial-delay macromodel. It is carved out of the
	// commit interval (PhaseCommit subtracts it), so the disjointness
	// invariant (Sum() <= Wall) holds. Zero unless Options.PulseFiltering
	// is on.
	PhaseGlitch
	// PhaseDelta is what a delta re-analysis adds to a full one: cloning
	// the baseline's arrival store, counters and pulse state. Only
	// AnalyzeDelta records it; full analyses report zero. The delta's seed
	// and walk land in seed/schedule/eval/commit/glitch like a full
	// analysis', so the disjointness invariant (Sum() <= Wall) holds.
	PhaseDelta
	// PhaseMC is the Monte-Carlo sample loop: the wall time AnalyzeMC spends
	// running perturbed samples and aggregating their arrivals. Like
	// PhaseDelta it is a top-level phase — the per-sample analyses' own
	// seed/eval/commit intervals are interior to it and are not additionally
	// recorded, so Sum() <= Wall still holds for MC results.
	PhaseMC

	NumPhases
)

var phaseNames = [NumPhases]string{
	"cones", "schedule", "seed", "eval", "commit", "glitch", "delta", "mc",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "phase(" + strconv.Itoa(int(p)) + ")"
	}
	return phaseNames[p]
}

// Phases enumerates all phases in accounting order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PhaseTimes accumulates wall time per phase. The zero value is ready to
// use. It is not synchronized: each analyze owns one, and only the
// goroutine driving the level walk writes to it.
type PhaseTimes [NumPhases]time.Duration

// Add accumulates d into phase p (negative d is clamped to zero so clock
// weirdness can never make a phase run backwards).
func (pt *PhaseTimes) Add(p Phase, d time.Duration) {
	if d < 0 {
		d = 0
	}
	pt[p] += d
}

// Sum returns the total of all phases.
func (pt PhaseTimes) Sum() time.Duration {
	var s time.Duration
	for _, d := range pt {
		s += d
	}
	return s
}

// ---- Chrome trace_event recorder -------------------------------------------

// TraceEvent is one record of the Chrome trace_event format (the "JSON
// Array Format" with an object wrapper). Complete events (ph "X") carry a
// duration; metadata events (ph "M") name processes and threads.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxRecArgs bounds the inline argument storage of a recorded event. Spans
// carry at most a handful of scalars (the widest today is three); anything
// beyond the bound is dropped rather than heap-spilled, because the hot
// path must not allocate — and the arrays ride inside every record, so the
// bound is also the record's footprint.
const maxRecArgs = 4

// traceRec is the internal, allocation-free representation of one event.
// It differs from TraceEvent only in how args are held: fixed inline arrays
// instead of a map, so recording a span costs a struct copy and nothing
// else. Records are materialized into TraceEvents (maps and all) only when
// a trace is actually read — which, under tail sampling, is the rare path.
type traceRec struct {
	name, cat, ph string
	ts, dur       float64
	pid, tid      int64
	nargs         int
	argk          [maxRecArgs]string
	argv          [maxRecArgs]any
}

// event materializes the wire-format TraceEvent (building the Args map).
func (r *traceRec) event() TraceEvent {
	e := TraceEvent{Name: r.name, Cat: r.cat, Ph: r.ph, TS: r.ts, Dur: r.dur, PID: r.pid, TID: r.tid}
	if r.nargs > 0 {
		e.Args = make(map[string]any, r.nargs)
		for i := 0; i < r.nargs; i++ {
			e.Args[r.argk[i]] = r.argv[i]
		}
	}
	return e
}

// Trace records spans for one logical operation (a request, a CLI run). A
// nil *Trace is the disabled recorder: every method no-ops, so callers
// thread it through without branching. A non-nil Trace is safe for
// concurrent use — worker goroutines record their spans under one mutex
// (contention is irrelevant: spans are per level, not per gate).
type Trace struct {
	mu   sync.Mutex
	t0   time.Time
	recs []traceRec
	// limit bounds the recorded events (0 = unlimited); beyond it new spans
	// are counted in dropped instead of stored, so an always-on per-request
	// recorder cannot grow without bound under a million-vector batch.
	limit   int
	dropped int
	// detail opts the trace into fine-grained spans (per level, per worker).
	// Passive tail-sampling recorders leave it off: they ride along on every
	// request, so they get the coarse per-vector phase spans only. Explicitly
	// requested traces (?trace=1, CLI -trace) turn it on.
	detail bool
	// traceID is the W3C trace id this recorder belongs to ("" when the
	// trace is not tied to a propagated request context).
	traceID string
}

// NewTrace starts an empty trace; its clock zero is now. Traces made for an
// explicit consumer default to full detail; use SetDetail(false) — or
// NewBoundedTrace, which defaults coarse — for always-on recorders.
func NewTrace() *Trace { return &Trace{t0: time.Now(), detail: true} }

// NewBoundedTrace starts a trace that stores at most limit events (<= 0
// behaves like NewTrace, minus the detail default). The bound is the
// tail-sampling safety valve: every request records spans, so the recorder
// must have a worst case. Bounded traces start coarse (no per-level/worker
// spans) because they are the always-on kind; SetDetail(true) upgrades one
// that a caller explicitly asked for.
func NewBoundedTrace(limit int) *Trace {
	t := NewTrace()
	t.limit = limit
	t.detail = false
	if limit > 0 {
		// Recycle record storage from traces that already came and went
		// (Release): in steady state an always-on per-request recorder
		// allocates nothing but the Trace header itself.
		if v := recsPool.Get(); v != nil {
			t.recs = (*v.(*[]traceRec))[:0]
		} else {
			// Pre-size for a typical coarse request (a few events per
			// vector) so the first uses don't churn through the
			// append-doubling sizes; bounded by limit so tiny caps stay
			// tiny.
			t.recs = make([]traceRec, 0, min(limit, 192))
		}
	}
	return t
}

// recsPool recycles record buffers between bounded traces. Entries are
// *[]traceRec (pointer, so Put doesn't allocate a slice-header box).
var recsPool sync.Pool

// Release returns the trace's record storage to the shared pool and leaves
// the trace empty. Call it when the trace is finished — after any
// serialization — and never touch the trace's events again afterwards. A
// post-Release append is safe (it starts a fresh buffer) but wasted.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	recs := t.recs
	t.recs = nil
	t.mu.Unlock()
	if cap(recs) == 0 {
		return
	}
	// Zero the used prefix so pooled buffers don't pin strings or boxed
	// values from dead requests.
	clear(recs[:len(recs)])
	empty := recs[:0]
	recsPool.Put(&empty)
}

// Enabled reports whether the recorder actually records.
func (t *Trace) Enabled() bool { return t != nil }

// SetDetail opts the trace in or out of fine-grained (per-level, per-worker)
// spans. Must be set before recording starts; not synchronized.
func (t *Trace) SetDetail(d bool) {
	if t != nil {
		t.detail = d
	}
}

// Detail reports whether producers should record fine-grained spans. A nil
// trace reports false, so `tr.Detail()` composes with the nil-no-op pattern.
func (t *Trace) Detail() bool { return t != nil && t.detail }

// SetTraceID ties the recorder to a propagated W3C trace id and records a
// marker event carrying it, so the serialized artifact is self-identifying:
// anyone holding the trace file can read which distributed trace it belongs
// to without the surrounding wide event. Like SetDetail, it must be called
// before recording starts (it is read without a lock on the hot path).
func (t *Trace) SetTraceID(id string) {
	if t == nil || id == "" {
		return
	}
	t.traceID = id
	t.Instant(0, 0, "meta", "trace_id", map[string]any{"traceId": id})
}

// ID returns the trace id set by SetTraceID ("" for an untied or nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Dropped reports how many events the bound discarded (0 = complete trace).
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// appendLocked stores a record, enforcing the bound. Caller holds t.mu.
func (t *Trace) appendLocked(r traceRec) {
	if t.limit > 0 && len(t.recs) >= t.limit {
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

func (t *Trace) since(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// Span is an open interval created by Begin. End closes it and records a
// complete ("X") event. The zero Span (from a nil Trace) is inert. Args live
// in fixed inline arrays — recording a span never touches the heap (values
// that don't fit maxRecArgs are dropped, not spilled).
type Span struct {
	tr    *Trace
	name  string
	cat   string
	pid   int64
	tid   int64
	start time.Time
	nargs int
	argk  [maxRecArgs]string
	argv  [maxRecArgs]any
}

// Begin opens a span on (pid, tid). pid groups rows in the viewer (one
// vector per pid in a batch); tid separates concurrent workers within it.
func (t *Trace) Begin(pid, tid int64, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, cat: cat, pid: pid, tid: tid, start: time.Now()}
}

// Arg attaches a key/value shown in the viewer's detail pane. Returns the
// span for chaining.
func (s Span) Arg(key string, value any) Span {
	if s.tr == nil || s.nargs == maxRecArgs {
		return s
	}
	s.argk[s.nargs], s.argv[s.nargs] = key, value
	s.nargs++
	return s
}

// End closes the span and records it.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	s.tr.appendLocked(traceRec{
		name: s.name, cat: s.cat, ph: "X",
		ts:  s.tr.since(s.start),
		dur: float64(end.Sub(s.start)) / float64(time.Microsecond),
		pid: s.pid, tid: s.tid,
		nargs: s.nargs, argk: s.argk, argv: s.argv,
	})
	s.tr.mu.Unlock()
}

// Instant records a zero-duration marker ("i" event, thread scope).
func (t *Trace) Instant(pid, tid int64, cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	now := time.Now()
	r := traceRec{name: name, cat: cat, ph: "i", ts: t.since(now), pid: pid, tid: tid}
	for k, v := range args {
		if r.nargs == maxRecArgs {
			break
		}
		r.argk[r.nargs], r.argv[r.nargs] = k, v
		r.nargs++
	}
	t.mu.Lock()
	t.appendLocked(r)
	t.mu.Unlock()
}

// NameProcess attaches a human-readable name to a pid row ("M" metadata).
func (t *Trace) NameProcess(pid int64, name string) {
	t.meta("process_name", pid, 0, name)
}

// NameThread attaches a human-readable name to a tid row within a pid.
func (t *Trace) NameThread(pid, tid int64, name string) {
	t.meta("thread_name", pid, tid, name)
}

// cachedNames precomputes "prefix N" row labels so the per-vector
// NameProcess call in a traced analyze costs a table lookup, not a Sprintf
// plus a fresh string. 512 covers any realistic batch/worker fan-out; the
// overflow falls back to formatting.
const cachedNameCount = 512

func cachedNames(prefix string) [cachedNameCount]string {
	var names [cachedNameCount]string
	for i := range names {
		names[i] = prefix + " " + strconv.Itoa(i)
	}
	return names
}

var (
	vectorNames = cachedNames("vector")
	workerNames = cachedNames("worker")
)

// VectorName returns the canonical viewer row label for vector i.
func VectorName(i int64) string {
	if i >= 0 && i < cachedNameCount {
		return vectorNames[i]
	}
	return fmt.Sprintf("vector %d", i)
}

// WorkerName returns the canonical viewer row label for worker i.
func WorkerName(i int64) string {
	if i >= 0 && i < cachedNameCount {
		return workerNames[i]
	}
	return fmt.Sprintf("worker %d", i)
}

func (t *Trace) meta(kind string, pid, tid int64, name string) {
	if t == nil {
		return
	}
	r := traceRec{name: kind, ph: "M", pid: pid, tid: tid, nargs: 1}
	r.argk[0], r.argv[0] = "name", name
	t.mu.Lock()
	t.appendLocked(r)
	t.mu.Unlock()
}

// Events materializes the recorded events (args maps built here, on the
// read path — never during recording).
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recs) == 0 {
		return nil
	}
	evs := make([]TraceEvent, len(t.recs))
	for i := range t.recs {
		evs[i] = t.recs[i].event()
	}
	return evs
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// WriteJSON emits the trace in the Chrome trace_event JSON Object Format:
// {"traceEvents":[...],"displayTimeUnit":"ns"} — the document format both
// chrome://tracing and Perfetto load directly.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`)
		return err
	}
	return writeTraceJSON(w, t.Events())
}

// MarshalJSON renders the same document as WriteJSON, so a *Trace can be
// embedded directly into a JSON response (the /v1/analyze?trace=1 path).
func (t *Trace) MarshalJSON() ([]byte, error) {
	var b traceBuilder
	if err := t.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.buf, nil
}

type traceBuilder struct{ buf []byte }

func (b *traceBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func writeTraceJSON(w io.Writer, evs []TraceEvent) error {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i := range evs {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := writeEvent(w, &evs[i]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, `],"displayTimeUnit":"ns"}`)
	return err
}

func writeEvent(w io.Writer, e *TraceEvent) error {
	// Hand-rolled for the fixed fields; args (rare) go through fmt with
	// %q/%v per value type. Keeps the hot serialization allocation-free
	// enough for inline trace responses.
	if _, err := fmt.Fprintf(w, `{"name":%q,"ph":%q,"ts":%s,"pid":%d,"tid":%d`,
		e.Name, e.Ph, formatFloat(e.TS), e.PID, e.TID); err != nil {
		return err
	}
	if e.Cat != "" {
		if _, err := fmt.Fprintf(w, `,"cat":%q`, e.Cat); err != nil {
			return err
		}
	}
	if e.Ph == "X" {
		if _, err := fmt.Fprintf(w, `,"dur":%s`, formatFloat(e.Dur)); err != nil {
			return err
		}
	}
	if e.Ph == "i" {
		// Instant events need a scope; "t" (thread) keeps them attached to
		// their row in the viewer.
		if _, err := io.WriteString(w, `,"s":"t"`); err != nil {
			return err
		}
	}
	if len(e.Args) > 0 {
		if _, err := io.WriteString(w, `,"args":{`); err != nil {
			return err
		}
		first := true
		for _, k := range sortedKeys(e.Args) {
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if err := writeArg(w, k, e.Args[k]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

func writeArg(w io.Writer, k string, v any) error {
	switch x := v.(type) {
	case string:
		_, err := fmt.Fprintf(w, "%q:%q", k, x)
		return err
	case int:
		_, err := fmt.Fprintf(w, "%q:%d", k, x)
		return err
	case int64:
		_, err := fmt.Fprintf(w, "%q:%d", k, x)
		return err
	case float64:
		_, err := fmt.Fprintf(w, "%q:%s", k, formatFloat(x))
		return err
	case bool:
		_, err := fmt.Fprintf(w, "%q:%v", k, x)
		return err
	default:
		_, err := fmt.Fprintf(w, "%q:%q", k, fmt.Sprint(x))
		return err
	}
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', 3, 64)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
