package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Config tunes a Server. The zero value of every field picks a sane
// production default.
type Config struct {
	// Registry supplies cell calculators (required).
	Registry *Registry
	// Workers is the sta.Options.Workers budget handed to every analysis
	// (0 = one per CPU, the engine default).
	Workers int
	// MaxInflight bounds concurrently admitted analysis/upload requests;
	// request MaxInflight+1 is answered 429 with Retry-After instead of
	// queueing unboundedly. Default 64.
	MaxInflight int
	// RequestTimeout is the per-request context budget; an analysis that
	// outlives it is abandoned at the next level boundary and answered 504.
	// Default 30s.
	RequestTimeout time.Duration
	// MaxNetlists bounds resident compiled netlists; the least recently
	// used handle is evicted beyond it (clients see 404 and re-upload).
	// Default 64.
	MaxNetlists int
	// MaxBaselines bounds cached baseline results for delta analysis
	// (/v1/analyze with keepBaseline, /v1/analyze:delta), LRU-evicted like
	// the netlist registry. Evicting a netlist also drops its baselines —
	// a baseline indexes the compiled handle's arrival slab and is
	// meaningless without it. Default 128.
	MaxBaselines int
	// Logger receives one structured line per request (id, method, path,
	// status, duration, engine cost) plus admission rejections. Nil discards
	// the logs — tests and embedded uses stay silent by default.
	Logger *slog.Logger
	// FlightRecorderSize bounds the wide-event ring behind /v1/debug/requests
	// (one record per request: ids, status, phase breakdown, engine
	// counters). 0 picks obs.DefaultFlightSize; negative disables the flight
	// recorder entirely — no ring, no per-request span recording, no debug
	// query surface (the recorder-off reference the bench guard measures).
	FlightRecorderSize int
	// TailThreshold is the latency above which a request's full span trace
	// is retained after the fact (tail sampling). Requests that error or ask
	// ?trace=1 are retained regardless. 0 picks 250ms; negative retains only
	// errored/flagged requests.
	TailThreshold time.Duration
	// MaxRetainedTraces bounds the retained Chrome trace artifacts (FIFO
	// beyond it). Default 32 — the black box keeps the recent anomalies, not
	// an archive.
	MaxRetainedTraces int
	// TraceEventCap bounds span events recorded per request; beyond it spans
	// are dropped and counted in the wide event's traceDropped. 0 picks
	// 8192; negative means unlimited.
	TraceEventCap int
	// WideLog, when non-nil, additionally receives every wide event as one
	// JSON line (stad -wide-log): the durable twin of the in-memory ring.
	WideLog io.Writer
}

// Server is the timing-analysis HTTP service. It implements http.Handler.
//
//	POST /v1/netlists       upload + levelize a netlist, get a handle
//	POST /v1/analyze        one stimulus vector against a handle (?trace=1
//	                        adds a Chrome trace_event document to the reply;
//	                        keepBaseline caches the result for delta queries)
//	POST /v1/analyze:delta  re-time a cached baseline under a stimulus edit,
//	                        re-evaluating only the gates the edit can reach
//	POST /v1/analyze:batch  a vector set through AnalyzeBatch
//	POST /v1/analyze:mc     Monte-Carlo analysis under process variation:
//	                        per-output arrival distributions, criticality,
//	                        corner presets (admission-weighted by samples)
//	POST /v1/explain        per-net proximity decision traces for one vector
//	GET  /healthz           liveness + cache/admission occupancy
//	GET  /metrics           counters + latency/phase histograms (JSON;
//	                        ?format=prom for Prometheus text exposition)
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux
	sem     chan struct{}
	log     *slog.Logger

	// flight is the wide-event ring (nil when disabled); traces holds the
	// tail-sampled Chrome trace artifacts keyed by request id; wideLog
	// mirrors every wide event to the configured writer (nil discards).
	flight  *obs.FlightRecorder
	traces  *traceStore
	wideLog *obs.WideLog

	// instance is a random token distinguishing this server's generated
	// request IDs from another instance's; reqSeq numbers requests within it.
	instance string
	reqSeq   atomic.Int64

	mu       sync.Mutex
	netlists map[string]*netlistEntry
	order    *list.List // front = most recently used; values are *netlistEntry
	nextID   int

	// Baseline results cached for delta analysis, LRU-bounded like the
	// netlist registry and guarded by the same mutex (netlist eviction
	// must atomically drop the victim's baselines).
	baselines map[string]*baselineEntry
	blOrder   *list.List // front = most recently used; values are *baselineEntry
	nextBID   int
}

// netlistEntry is one uploaded netlist: the circuit compiled (levelized)
// exactly once at upload, reused by every analyze request that names it.
type netlistEntry struct {
	id       string
	compiled *sta.Compiled
	elem     *list.Element
}

// baselineEntry is one cached analysis result, pinned to the netlist handle
// it was computed against.
type baselineEntry struct {
	id        string
	netlistID string
	res       *sta.Result
	elem      *list.Element
}

// New builds a Server over a registry.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("service: Config.Registry is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxNetlists <= 0 {
		cfg.MaxNetlists = 64
	}
	if cfg.MaxBaselines <= 0 {
		cfg.MaxBaselines = 128
	}
	if cfg.TailThreshold == 0 {
		cfg.TailThreshold = 250 * time.Millisecond
	}
	if cfg.MaxRetainedTraces <= 0 {
		cfg.MaxRetainedTraces = 32
	}
	if cfg.TraceEventCap == 0 {
		cfg.TraceEventCap = 8192
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tok := make([]byte, 4)
	rand.Read(tok)
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxInflight),
		log:       logger,
		instance:  hex.EncodeToString(tok),
		netlists:  map[string]*netlistEntry{},
		order:     list.New(),
		baselines: map[string]*baselineEntry{},
		blOrder:   list.New(),
	}
	if cfg.FlightRecorderSize >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorderSize)
		s.traces = newTraceStore(cfg.MaxRetainedTraces)
	}
	s.wideLog = obs.NewWideLog(cfg.WideLog)
	s.mux.HandleFunc("POST /v1/netlists", s.guard("netlists", serve(s, 64<<20, s.handleUpload)))
	s.mux.HandleFunc("POST /v1/analyze", s.guard("analyze", serve(s, 16<<20, s.handleAnalyze)))
	s.mux.HandleFunc("POST /v1/analyze:delta", s.guard("analyze:delta", serve(s, 16<<20, s.handleDelta)))
	s.mux.HandleFunc("POST /v1/analyze:batch", s.guard("analyze:batch", serve(s, 64<<20, s.handleBatch)))
	// MC admits itself with a samples-weighted token count after validation,
	// so it takes the bare instrumentation wrapper rather than the guard.
	s.mux.HandleFunc("POST /v1/analyze:mc", s.instrument("analyze:mc", serve(s, 16<<20, s.handleMC)))
	s.mux.HandleFunc("POST /v1/explain", s.guard("explain", serve(s, 16<<20, s.handleExplain)))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The debug surface is deliberately outside the admission guard and the
	// flight recorder itself: reading the black box must work (and leave no
	// record) even when the service is saturated — that is exactly when an
	// operator reaches for it.
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's counters (for tests and the bench harness).
func (s *Server) Metrics() *Metrics { return s.metrics }

// InFlight reports how many guarded requests are currently admitted — the
// number a graceful drain is waiting out.
func (s *Server) InFlight() int { return len(s.sem) }

// ---- wire types ------------------------------------------------------------

// Event is one primary-input stimulus on the wire. Times are picoseconds,
// matching the CLI event syntax net:dir:tt_ps:time_ps.
type Event struct {
	Net    string  `json:"net"`
	Dir    string  `json:"dir"` // "rise" | "fall" (single letters accepted)
	TTPs   float64 `json:"ttPs"`
	TimePs float64 `json:"timePs"`
}

// UploadRequest carries a netlist in the text format sta.ParseNetlist reads.
type UploadRequest struct {
	Netlist string `json:"netlist"`
}

// UploadResponse describes the compiled handle.
type UploadResponse struct {
	ID      string   `json:"id"`
	Gates   int      `json:"gates"`
	Levels  int      `json:"levels"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
}

// AnalyzeRequest runs one vector against an uploaded netlist. KeepBaseline
// caches the result server-side and returns a baselineId for
// /v1/analyze:delta queries against it.
type AnalyzeRequest struct {
	Netlist      string  `json:"netlist"`
	Mode         string  `json:"mode,omitempty"` // "prox" (default) | "conv"
	Nets         string  `json:"nets,omitempty"` // "outputs" (default) | "all"
	Vector       []Event `json:"vector"`
	KeepBaseline bool    `json:"keepBaseline,omitempty"`
	// PulseFilter applies the Section-6 inertial-delay model to opposite-edge
	// output pairs: runt pulses below the pair's minimum separation are
	// absorbed, survivors propagate a degraded transition time. Composes with
	// KeepBaseline — /v1/analyze:delta re-judges edited cones under the same
	// filtering and inherits every untouched verdict.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// RemoveEvent names one baseline primary-input event a delta withdraws.
type RemoveEvent struct {
	Net string `json:"net"`
	Dir string `json:"dir"` // "rise" | "fall" (single letters accepted)
}

// DeltaRequest re-times a cached baseline under a stimulus edit: Remove
// withdraws baseline events, Set adds or replaces them (removes apply
// first). The analysis mode is the baseline's. Netlist is optional — when
// present it must match the netlist the baseline was computed against.
// KeepBaseline caches the delta result as a new baseline, so edit chains
// never re-analyze from scratch.
type DeltaRequest struct {
	Netlist      string        `json:"netlist,omitempty"`
	Baseline     string        `json:"baseline"`
	Nets         string        `json:"nets,omitempty"` // "outputs" (default) | "all"
	Set          []Event       `json:"set,omitempty"`
	Remove       []RemoveEvent `json:"remove,omitempty"`
	KeepBaseline bool          `json:"keepBaseline,omitempty"`
	// PulseFilter must state how the baseline was analyzed: filtering is an
	// analysis semantic the delta inherits, so a mismatch is a 4xx rather
	// than a silent re-interpretation of the baseline.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// BatchRequest fans a vector set through AnalyzeBatch.
type BatchRequest struct {
	Netlist string    `json:"netlist"`
	Mode    string    `json:"mode,omitempty"`
	Nets    string    `json:"nets,omitempty"`
	Vectors [][]Event `json:"vectors"`
	// PulseFilter applies Section-6 pulse filtering to every vector.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// Arrival is one reported net transition (picoseconds).
type Arrival struct {
	Net        string  `json:"net"`
	Dir        string  `json:"dir"`
	TimePs     float64 `json:"timePs"`
	TTPs       float64 `json:"ttPs"`
	UsedInputs int     `json:"usedInputs"`
}

// VectorResult is one vector's arrivals plus its workload counters.
// The pulse counters are non-zero only for pulseFilter requests: how many
// opposite-edge output pairs Section-6 filtering absorbed outright, how many
// survived with a degraded transition time, and how many carried no glitch
// model to judge them (propagated untouched — a model-coverage gap).
type VectorResult struct {
	Arrivals       []Arrival `json:"arrivals"`
	GatesEvaluated int       `json:"gatesEvaluated"`
	ProximityEvals int       `json:"proximityEvals"`
	SingleArcEvals int       `json:"singleArcEvals"`
	PulsesFiltered int       `json:"pulsesFiltered,omitempty"`
	PulsesDegraded int       `json:"pulsesDegraded,omitempty"`
	PulsesUnjudged int       `json:"pulsesUnjudged,omitempty"`
}

// AnalyzeResponse answers /v1/analyze. Trace is present only when the
// request asked for ?trace=1: the full Chrome trace_event document for this
// analysis, loadable directly in chrome://tracing or Perfetto.
type AnalyzeResponse struct {
	Mode string `json:"mode"`
	VectorResult
	// BaselineID is present when the request asked keepBaseline: the handle
	// /v1/analyze:delta takes.
	BaselineID string     `json:"baselineId,omitempty"`
	Trace      *obs.Trace `json:"trace,omitempty"`
}

// DeltaResponse answers /v1/analyze:delta. GatesReused/GatesReevaluated
// report how much of the baseline survived the edit — the whole point of
// the endpoint, so it is first-class in the reply.
type DeltaResponse struct {
	Mode string `json:"mode"`
	VectorResult
	GatesReevaluated int        `json:"gatesReevaluated"`
	GatesReused      int        `json:"gatesReused"`
	BaselineID       string     `json:"baselineId,omitempty"`
	Trace            *obs.Trace `json:"trace,omitempty"`
}

// ExplainRequest asks why an analysis produced the arrivals it did on the
// named nets. The vector is re-analyzed (explain is a post-pass over a
// Result; the analysis itself is cheap and cached at the compile level).
type ExplainRequest struct {
	Netlist string   `json:"netlist"`
	Mode    string   `json:"mode,omitempty"`
	Nets    []string `json:"nets"`
	Vector  []Event  `json:"vector"`
	// PulseFilter explains the vector under Section-6 pulse filtering: a
	// filtered or degraded net's story then includes the absorbed
	// opposite-edge pair and its separation margin.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// NetExplainResult is one net's explanation: the structured decision trace
// plus the same human-readable report cmd/sta -explain prints. The engine's
// NetExplain carries live graph pointers (gates reference nets reference
// gates), so the wire shape flattens everything to names and picoseconds.
type NetExplainResult struct {
	Net    string           `json:"net"`
	PI     bool             `json:"pi,omitempty"`
	Gate   string           `json:"gate,omitempty"`
	Type   string           `json:"type,omitempty"`
	Report string           `json:"report"`
	Dirs   []ExplainDirWire `json:"dirs"`
	// Pulse is the Section-6 verdict recorded on this net, when the request
	// asked pulseFilter and filtering absorbed or degraded an opposite-edge
	// pair here.
	Pulse *PulseWire `json:"pulse,omitempty"`
}

// PulseWire is a Section-6 pulse-filtering verdict on the wire: the causing
// pin pair, the observed separation against the pair's inertial delay
// (picoseconds; minSepPs omitted when no characterized separation completes a
// transition), and either filtered=true (pair absorbed, nothing committed) or
// the transition-time degradation applied to the leading edge.
type PulseWire struct {
	FallPin  int     `json:"fallPin"`
	RisePin  int     `json:"risePin"`
	LeadDir  string  `json:"leadDir"`
	SepPs    float64 `json:"sepPs"`
	MinSepPs float64 `json:"minSepPs,omitempty"`
	ExtremeV float64 `json:"extremeV,omitempty"`
	Factor   float64 `json:"factor"`
	Filtered bool    `json:"filtered"`
	// Unjudged marks a runt-pulse-shaped pair the library carries no glitch
	// model for: it propagated untouched (factor 1), and sepPs is the
	// observed output pulse width rather than an input separation.
	Unjudged bool `json:"unjudged,omitempty"`
}

// ExplainDirWire is one explained output direction.
type ExplainDirWire struct {
	Dir     string             `json:"dir"`
	Arrival ExplainArrival     `json:"arrival"`
	Inputs  []ExplainInputWire `json:"inputs,omitempty"`
	// Proximity is the core decision trace (Proximity-mode results): the
	// dominance order, each pairwise absorption with its normalized table
	// coordinates, and every window-pruned input with the reason.
	Proximity *core.Explain `json:"proximity,omitempty"`
	// Arcs is the Conventional-mode story with the winner marked.
	Arcs []ConvArcWire `json:"arcs,omitempty"`
}

// ExplainArrival is an arrival without the engine's graph pointers.
type ExplainArrival struct {
	Dir        string  `json:"dir"`
	TimePs     float64 `json:"timePs"`
	TTPs       float64 `json:"ttPs"`
	FromPin    int     `json:"fromPin"`
	UsedInputs int     `json:"usedInputs"`
}

// ExplainInputWire is one input pin's presented arrival.
type ExplainInputWire struct {
	Pin     int            `json:"pin"`
	Net     string         `json:"net"`
	Arrival ExplainArrival `json:"arrival"`
}

// ConvArcWire is one conventional-mode arc on the wire.
type ConvArcWire struct {
	Pin       int     `json:"pin"`
	Net       string  `json:"net"`
	DelayPs   float64 `json:"delayPs"`
	OutTTPs   float64 `json:"outTtPs"`
	ArrivesPs float64 `json:"arrivesPs"`
	Winner    bool    `json:"winner"`
}

// ExplainResponse answers /v1/explain.
type ExplainResponse struct {
	Mode string             `json:"mode"`
	Nets []NetExplainResult `json:"nets"`
}

// BatchResponse answers /v1/analyze:batch, results indexed like the request
// vectors.
type BatchResponse struct {
	Mode    string         `json:"mode"`
	Results []VectorResult `json:"results"`
}

// MCRequest runs a Monte-Carlo analysis of one vector under process
// variation. Samples is required (1..65536); Sigma is the per-gate
// delay-multiplier standard deviation; Corners optionally names preset
// global corners ("slow", "typ", "fast") evaluated alongside the samples.
type MCRequest struct {
	Netlist string   `json:"netlist"`
	Mode    string   `json:"mode,omitempty"` // "prox" (default) | "conv"
	Vector  []Event  `json:"vector"`
	Samples int      `json:"samples"`
	Seed    uint64   `json:"seed,omitempty"`
	Sigma   float64  `json:"sigma,omitempty"`
	Corners []string `json:"corners,omitempty"`
	Bins    int      `json:"bins,omitempty"` // histogram bins (<= 0 picks 16)
	// PulseFilter applies Section-6 pulse filtering inside every sample and
	// corner; the response then reports glitch criticality — per gate, the
	// probability across samples that its runt pulse was absorbed or
	// propagated degraded.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// MCHistWire is one output distribution's fixed-bin histogram (picoseconds).
type MCHistWire struct {
	LoPs   float64 `json:"loPs"`
	HiPs   float64 `json:"hiPs"`
	Counts []int   `json:"counts"`
}

// MCOutputDist is one primary output direction's arrival distribution over
// the samples, all times in picoseconds.
type MCOutputDist struct {
	Net    string      `json:"net"`
	Dir    string      `json:"dir"`
	N      int         `json:"n"` // samples in which this transition occurred
	MeanPs float64     `json:"meanPs"`
	StdPs  float64     `json:"stdPs"`
	MinPs  float64     `json:"minPs"`
	MaxPs  float64     `json:"maxPs"`
	P50Ps  float64     `json:"p50Ps"`
	P95Ps  float64     `json:"p95Ps"`
	P99Ps  float64     `json:"p99Ps"`
	Hist   *MCHistWire `json:"hist,omitempty"`
}

// MCCriticality is one gate's critical-path vote: the fraction of samples
// whose worst-output path ran through it.
type MCCriticality struct {
	Gate        string  `json:"gate"`
	Type        string  `json:"type"`
	Out         string  `json:"out"`
	Count       int     `json:"count"`
	Probability float64 `json:"probability"`
}

// MCGlitchCriticality is one gate's Section-6 verdict distribution over the
// samples: in how many (and what fraction of) samples process variation left
// its opposite-edge pair absorbed versus propagated degraded. Present only
// for pulseFilter requests.
type MCGlitchCriticality struct {
	Gate      string  `json:"gate"`
	Type      string  `json:"type"`
	Out       string  `json:"out"`
	Absorbed  int     `json:"absorbed"`
	Degraded  int     `json:"degraded"`
	PAbsorbed float64 `json:"pAbsorbed"`
	PDegraded float64 `json:"pDegraded"`
}

// MCCornerWire is one corner preset's deterministic arrivals.
type MCCornerWire struct {
	Name       string    `json:"name"`
	Multiplier float64   `json:"multiplier"`
	Arrivals   []Arrival `json:"arrivals"`
}

// MCResponse answers /v1/analyze:mc. The pulse counters sum the Section-6
// verdicts across every sample (corners excluded) for pulseFilter requests.
type MCResponse struct {
	Mode              string                `json:"mode"`
	Samples           int                   `json:"samples"`
	Seed              uint64                `json:"seed"`
	Sigma             float64               `json:"sigma"`
	Outputs           []MCOutputDist        `json:"outputs"`
	Criticality       []MCCriticality       `json:"criticality"`
	GlitchCriticality []MCGlitchCriticality `json:"glitchCriticality,omitempty"`
	Corners           []MCCornerWire        `json:"corners,omitempty"`
	GatesEvaluated    int                   `json:"gatesEvaluated"`
	PulsesFiltered    int                   `json:"pulsesFiltered,omitempty"`
	PulsesDegraded    int                   `json:"pulsesDegraded,omitempty"`
	PulsesUnjudged    int                   `json:"pulsesUnjudged,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- plumbing --------------------------------------------------------------

// statusWriter captures the response code for metrics. A handler that
// calls Write without an explicit WriteHeader sends an implicit 200 — that
// must be recorded on the first Write, not left at the zero value (which
// would skew the per-class status counters and latency-by-status), and a
// later out-of-order WriteHeader must not overwrite it (net/http ignores
// the second header, so the metrics must too). For error responses the
// leading body bytes are kept, so the wide event can say what the client
// was actually told.
type statusWriter struct {
	http.ResponseWriter
	status  int // 0 until the handler commits a status
	errBody []byte
}

// errBodyCap bounds the error-body prefix retained per request.
const errBodyCap = 256

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 400 && len(w.errBody) < errBodyCap {
		take := errBodyCap - len(w.errBody)
		if take > len(b) {
			take = len(b)
		}
		w.errBody = append(w.errBody, b[:take]...)
	}
	return w.ResponseWriter.Write(b)
}

// reqState travels down the handler chain in the request context: the
// request's identity (id + trace context), its always-on span recorder, and
// the wide-event fields the handler fills as it learns them. One goroutine
// (the handler's) writes it; instrument reads it after the handler returns.
type reqState struct {
	id            string
	tc            obs.TraceContext
	tr            *obs.Trace // nil when the flight recorder is disabled and ?trace=1 absent
	forceTrace    bool       // ?trace=1: inline trace in the response + unconditional retention
	admissionWait time.Duration
	wide          obs.WideEvent
}

type reqStateKey struct{}

// reqStateFrom returns the request's state (nil outside instrument, which
// every note helper tolerates).
func reqStateFrom(r *http.Request) *reqState {
	st, _ := r.Context().Value(reqStateKey{}).(*reqState)
	return st
}

// trace returns the request's span recorder (nil-safe).
func (st *reqState) trace() *obs.Trace {
	if st == nil {
		return nil
	}
	return st.tr
}

// noteNetlist records which compiled handle the request named and whether
// it was resident.
func (st *reqState) noteNetlist(id string, hit bool) {
	if st == nil {
		return
	}
	st.wide.Netlist = id
	st.wide.CacheHit = hit
}

// noteStats folds one analysis result's counters and phase breakdown into
// the request's wide event (batch requests call it once per vector);
// mcSamples is the Monte-Carlo sample count the analysis drew, 0 otherwise.
func (st *reqState) noteStats(stats *sta.Stats, mcSamples int) {
	if st == nil {
		return
	}
	w := &st.wide
	w.Vectors++
	w.MCSamples += mcSamples
	w.GatesScheduled += stats.GatesScheduled
	w.GatesEvaluated += stats.GatesEvaluated
	w.GatesReused += stats.GatesReused
	w.GatesReevaluated += stats.GatesReevaluated
	w.ProximityEvals += stats.ProximityEvals
	w.SingleArcEvals += stats.SingleArcEvals
	w.PulsesFiltered += stats.PulsesFiltered
	w.PulsesDegraded += stats.PulsesDegraded
	w.PulsesUnjudged += stats.PulsesUnjudged
	for _, p := range obs.Phases() {
		w.Phases.Add(p, stats.Phases[p])
	}
}

// instrument wraps a handler with request identification (id + W3C trace
// context, both honored or minted and both echoed in the response headers),
// status capture, the always-on bounded span recorder, metrics, the wide
// event, and the per-request log line — everything except admission, which
// weighted endpoints (Monte-Carlo) decide after reading the request body.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.requestID(r)
		tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if ok {
			// Same trace id as the caller, our own span id downstream.
			tc = tc.Child()
		} else {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("X-Request-Id", id)
		w.Header().Set("traceparent", tc.Header())
		st := &reqState{id: id, tc: tc, forceTrace: wantTrace(r)}
		if s.flight != nil || st.forceTrace {
			st.tr = obs.NewBoundedTrace(s.cfg.TraceEventCap)
			// Fine-grained (per-level, per-worker) spans only when the
			// caller asked for the trace: the passive tail-sampling
			// recorder rides along on every request and must stay cheap.
			st.tr.SetDetail(st.forceTrace)
			st.tr.SetTraceID(tc.TraceID)
		}
		r = r.WithContext(context.WithValue(r.Context(), reqStateKey{}, st))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			// The handler wrote nothing at all; net/http will send 200.
			status = http.StatusOK
		}
		d := time.Since(start)
		s.metrics.observe(name, status, d)
		ev := s.finishRequest(st, name, r, sw, status, start, d)
		s.log.Info("request", "id", id, "traceId", tc.TraceID, "endpoint", name,
			"method", r.Method, "path", r.URL.Path,
			"status", status, "durMs", float64(d.Microseconds())/1e3,
			"gatesEvaluated", ev.GatesEvaluated,
			"pulsesFiltered", ev.PulsesFiltered, "pulsesDegraded", ev.PulsesDegraded,
			"mcSamples", ev.MCSamples,
			"admissionWaitMs", float64(ev.AdmissionWait.Microseconds())/1e3)
	}
}

// admit non-blockingly acquires weight admission tokens. On failure it rolls
// back the partial acquisition and reports false — a heavy request never
// deadlocks against another heavy request by holding half its tokens.
func (s *Server) admit(weight int) bool {
	for i := 0; i < weight; i++ {
		select {
		case s.sem <- struct{}{}:
		default:
			for ; i > 0; i-- {
				<-s.sem
			}
			return false
		}
	}
	return true
}

// release returns weight admission tokens.
func (s *Server) release(weight int) {
	for i := 0; i < weight; i++ {
		<-s.sem
	}
}

// enter is the one admission step: guarded endpoints enter at weight 1
// before their body is read, Monte-Carlo at its sample weight after
// validation. It records the admission wait in the wide event and bounds
// the admitted request by the request timeout; the caller defers done. A
// refusal is logged and returned as a 429 — bounded latency beats an
// unbounded queue.
func (s *Server) enter(w http.ResponseWriter, r *http.Request, name string, weight int) (ctx context.Context, done func(), err error) {
	t0 := time.Now()
	admitted := s.admit(weight)
	if st := reqStateFrom(r); st != nil {
		st.admissionWait = time.Since(t0)
	}
	if !admitted {
		s.log.Warn("request rejected", "id", w.Header().Get("X-Request-Id"), "endpoint", name,
			"method", r.Method, "path", r.URL.Path,
			"status", http.StatusTooManyRequests, "weight", weight, "maxInflight", s.cfg.MaxInflight)
		return nil, nil, &statusError{http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d admission tokens); retry", s.cfg.MaxInflight)}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	return ctx, func() { cancel(); s.release(weight) }, nil
}

// guard wraps a handler with unit-weight admission plus the per-request
// timeout and instrumentation. Every endpoint whose cost does not scale with
// a request-declared knob uses this.
func (s *Server) guard(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		ctx, done, err := s.enter(w, r, name, 1)
		if err != nil {
			s.fail(w, err)
			return
		}
		defer done()
		h(w, r.WithContext(ctx))
	})
}

// requestID honors a caller-supplied X-Request-Id (so IDs correlate across
// a proxy chain) and otherwise mints one from the instance token plus a
// per-server sequence number.
func (s *Server) requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" && len(id) <= 128 {
		return id
	}
	return s.instance + "-" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body with a size cap; analyze bodies
// are small, netlists can be large but bounded. The body must be exactly
// one JSON document: trailing garbage (`{"netlist":"n1"}{"junk":1}`) is an
// error, not silently ignored half-read. A body over the cap fails with
// the *http.MaxBytesError, wherever the cap cut it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// StatusClientClosedRequest is the nginx convention for "the client went
// away before the response": not a timeout (the server had budget left),
// not a client syntax error — its own class, so p99 and timeout alerting
// stay clean when callers hang up mid-analyze.
const StatusClientClosedRequest = 499

// statusError is a refusal answered with its own status: 404 for a handle
// that is not resident, 429 when admission cannot cover the request.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func notFound(format string, args ...any) error {
	return &statusError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

// fail is the one error path. A statusError keeps its status (a 429 adds a
// Retry-After hint). A panic the engine recovered (sta.PanicError — a
// defect, counted in stad_panics_total and logged with its stack) is a 500
// naming where the engine failed (gate, vector or sample) and the request
// id; the runtime's panic text and stack stay in the server log. The
// request deadline expiring is a 504, the client disconnecting (request
// context canceled) a 499, and everything else (bad nets, bad events,
// missing dual models) a 400 — all properties of the request or the
// uploaded artifacts, not of the server.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var se *statusError
	var pe *sta.PanicError
	switch {
	case errors.As(err, &se):
		if se.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, se.status, "%s", se.msg)
	case errors.As(err, &pe):
		id := w.Header().Get("X-Request-Id")
		s.metrics.Panics.Add(1)
		s.log.Error("engine panic", "id", id, "err", err, "stack", string(pe.Stack))
		where := strings.Replace(err.Error(), pe.Error(), sta.ErrPanic.Error(), 1)
		writeError(w, http.StatusInternalServerError, "internal error: %s (request %s; details in the server log)", where, id)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "analysis timed out: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, "analysis canceled by client: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// ---- the pipeline ----------------------------------------------------------

// call is one request on its way through the pipeline: decode, the
// endpoint's own checks, resolve, admit (Monte-Carlo only; guarded
// endpoints were admitted before decode), the engine call, account and
// encode (the vector answers stream straight from their results; the
// others build a wire struct). A failing stage returns an error, which fail
// answers.
type call struct {
	s        *Server
	w        http.ResponseWriter
	r        *http.Request
	st       *reqState
	done     func() // releases an admission taken inside the pipeline
	compiled *sta.Compiled
	mode     sta.Mode
	nets     netScope
}

// serve runs one endpoint through the pipeline: it decodes the body,
// answering a body over the endpoint's limit 413 and a malformed one 400
// itself, hands the request to run, and streams run's vector answer,
// encodes any other answer, or answers its error.
func serve[Req any](s *Server, limit int64, run func(*call, *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(w, r, &req, limit); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, "request body too large: %s takes at most %d bytes",
					r.URL.Path, tooLarge.Limit)
				return
			}
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		c := &call{s: s, w: w, r: r, st: reqStateFrom(r), done: func() {}}
		defer func() { c.done() }()
		resp, err := run(c, &req)
		if err != nil {
			s.fail(w, err)
			return
		}
		if a, ok := resp.(*vectorAnswer); ok {
			a.writeTo(w)
			return
		}
		writeJSON(w, resp)
	}
}

// resolve looks the netlist up, recording it in the wide event, then parses
// the mode and the report scope (an endpoint without either passes "").
func (c *call) resolve(netlist, mode, nets string) (err error) {
	compiled, ok := c.s.lookupNetlist(netlist)
	c.st.noteNetlist(netlist, ok)
	if !ok {
		return notFound("unknown netlist %q (expired or never uploaded)", netlist)
	}
	c.compiled = compiled
	if c.mode, err = parseMode(mode); err != nil {
		return err
	}
	c.nets, err = parseNets(nets)
	return err
}

// options are the engine options of every analysis the call runs.
func (c *call) options(pulseFilter bool) sta.Options {
	return sta.Options{Workers: c.s.cfg.Workers, PulseFiltering: pulseFilter, Trace: c.st.trace()}
}

// account is the one accounting call: it folds an analysis's counters and
// phases into the wide event and /metrics. mcSamples > 0 marks a
// Monte-Carlo run, which /metrics counts in runs and samples, not vectors.
func (c *call) account(stats *sta.Stats, mcSamples int) {
	c.st.noteStats(stats, mcSamples)
	c.s.metrics.addAnalysis(stats, mcSamples)
}

// inlineTrace is the span trace a ?trace=1 request gets in its answer.
func (c *call) inlineTrace() *obs.Trace {
	if c.st != nil && c.st.forceTrace {
		return c.st.tr
	}
	return nil
}

// ---- handlers --------------------------------------------------------------

// handleUpload parses and levelizes a netlist once, caching the compiled
// handle. Every cell type the netlist references is resolved through the
// registry — the first upload of a library pays the model loads, later
// uploads and every analyze hit the cache.
func (s *Server) handleUpload(c *call, req *UploadRequest) (any, error) {
	if strings.TrimSpace(req.Netlist) == "" {
		return nil, errors.New("empty netlist")
	}
	lib := sta.NewLibrary()
	for _, typ := range scanGateTypes(req.Netlist) {
		calc, err := s.cfg.Registry.Get(typ)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %v", typ, err)
		}
		lib.Add(typ, calc)
	}
	circuit, err := sta.ParseNetlist(strings.NewReader(req.Netlist), lib)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	compiled, err := circuit.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile: %v", err)
	}

	s.mu.Lock()
	s.nextID++
	e := &netlistEntry{id: fmt.Sprintf("n%d", s.nextID), compiled: compiled}
	e.elem = s.order.PushFront(e)
	s.netlists[e.id] = e
	for s.order.Len() > s.cfg.MaxNetlists {
		back := s.order.Back()
		victim := back.Value.(*netlistEntry)
		s.order.Remove(back)
		delete(s.netlists, victim.id)
		s.dropBaselinesLocked(victim.id)
	}
	s.mu.Unlock()

	// The upload's wide event names the handle it created.
	c.st.noteNetlist(e.id, true)

	// Empty slices marshal as [] rather than null — clients iterating the
	// field must never have to special-case a missing array.
	resp := UploadResponse{
		ID:      e.id,
		Gates:   compiled.NumGates(),
		Levels:  compiled.NumLevels(),
		Inputs:  make([]string, 0, len(circuit.PIs)),
		Outputs: make([]string, 0, len(circuit.POs)),
	}
	for _, pi := range circuit.PIs {
		resp.Inputs = append(resp.Inputs, pi.Name)
	}
	for _, po := range circuit.POs {
		resp.Outputs = append(resp.Outputs, po.Name)
	}
	return resp, nil
}

// lookupNetlist returns the compiled handle for an id, refreshing its LRU
// position.
func (s *Server) lookupNetlist(id string) (*sta.Compiled, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.netlists[id]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(e.elem)
	return e.compiled, true
}

// dropBaselinesLocked removes every baseline pinned to an evicted netlist.
// Caller holds s.mu.
func (s *Server) dropBaselinesLocked(netlistID string) {
	for id, b := range s.baselines {
		if b.netlistID == netlistID {
			s.blOrder.Remove(b.elem)
			delete(s.baselines, id)
		}
	}
}

// storeBaseline caches an analysis result for later delta queries and
// returns its handle, evicting the least recently used baseline beyond the
// configured bound.
func (s *Server) storeBaseline(netlistID string, res *sta.Result) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextBID++
	b := &baselineEntry{id: fmt.Sprintf("b%d", s.nextBID), netlistID: netlistID, res: res}
	b.elem = s.blOrder.PushFront(b)
	s.baselines[b.id] = b
	for s.blOrder.Len() > s.cfg.MaxBaselines {
		back := s.blOrder.Back()
		victim := back.Value.(*baselineEntry)
		s.blOrder.Remove(back)
		delete(s.baselines, victim.id)
	}
	return b.id
}

// lookupBaseline returns a cached baseline, refreshing its LRU position.
func (s *Server) lookupBaseline(id string) (*baselineEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.baselines[id]
	if !ok {
		return nil, false
	}
	s.blOrder.MoveToFront(b.elem)
	return b, true
}

func (s *Server) handleAnalyze(c *call, req *AnalyzeRequest) (any, error) {
	if err := c.resolve(req.Netlist, req.Mode, req.Nets); err != nil {
		return nil, err
	}
	evs, err := resolveVector(c.compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	res, err := c.compiled.Analyze(c.r.Context(), evs, c.mode, c.options(req.PulseFilter))
	if err != nil {
		return nil, err
	}
	c.account(&res.Stats, 0)
	a, err := c.answer(analyzeAnswer, c.mode.String(), res)
	if err != nil {
		return nil, err
	}
	if req.KeepBaseline {
		a.baselineID = s.storeBaseline(req.Netlist, res)
	}
	return a, nil
}

// handleDelta re-times a cached baseline under a stimulus edit via the
// engine's delta propagation: only gates the edit can actually reach are
// re-evaluated, everything else keeps its baseline arrival bit for bit.
// The mode is the baseline's.
func (s *Server) handleDelta(c *call, req *DeltaRequest) (any, error) {
	bl, ok := s.lookupBaseline(req.Baseline)
	if !ok {
		return nil, notFound("unknown baseline %q (expired or never kept)", req.Baseline)
	}
	if req.Netlist != "" && req.Netlist != bl.netlistID {
		return nil, fmt.Errorf("baseline %q belongs to netlist %q, not %q",
			req.Baseline, bl.netlistID, req.Netlist)
	}
	if err := c.resolve(bl.netlistID, "", req.Nets); err != nil {
		return nil, err
	}
	delta, err := resolveDelta(c.compiled.Circuit(), req.Set, req.Remove)
	if err != nil {
		return nil, err
	}
	res, err := c.compiled.AnalyzeDelta(c.r.Context(), bl.res, delta, c.options(req.PulseFilter))
	if err != nil {
		return nil, err
	}
	c.account(&res.Stats, 0)
	a, err := c.answer(deltaAnswer, res.Mode.String(), res)
	if err != nil {
		return nil, err
	}
	if req.KeepBaseline {
		a.baselineID = s.storeBaseline(bl.netlistID, res)
	}
	return a, nil
}

// wantTrace reports whether the request opted into span recording.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleExplain re-analyzes one vector and returns the decision trace for
// each requested net: dominance order, pairwise absorptions, window prunes
// (Proximity mode) or per-arc delays with the winner marked (Conventional).
func (s *Server) handleExplain(c *call, req *ExplainRequest) (any, error) {
	if len(req.Nets) == 0 {
		return nil, errors.New("no nets requested")
	}
	if err := c.resolve(req.Netlist, req.Mode, ""); err != nil {
		return nil, err
	}
	evs, err := resolveVector(c.compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	res, err := c.compiled.Analyze(c.r.Context(), evs, c.mode, c.options(req.PulseFilter))
	if err != nil {
		return nil, err
	}
	c.account(&res.Stats, 0)
	nes, err := sta.ExplainNets(c.compiled.Circuit(), res, req.Nets)
	if err != nil {
		return nil, err
	}
	resp := ExplainResponse{Mode: c.mode.String(), Nets: make([]NetExplainResult, len(nes))}
	for i, ne := range nes {
		resp.Nets[i] = netExplainWire(ne)
	}
	return resp, nil
}

func wireArrival(a sta.Arrival) ExplainArrival {
	return ExplainArrival{
		Dir: a.Dir.String(), TimePs: a.Time * 1e12, TTPs: a.TT * 1e12,
		FromPin: a.FromPin, UsedInputs: a.UsedInputs,
	}
}

// netExplainWire flattens an engine explanation onto the wire shape.
func netExplainWire(ne *sta.NetExplain) NetExplainResult {
	var sb strings.Builder
	ne.Format(&sb)
	out := NetExplainResult{
		Net: ne.Net, PI: ne.PI, Gate: ne.Gate, Type: ne.Type,
		Report: sb.String(), Dirs: []ExplainDirWire{},
	}
	if p := ne.Pulse; p != nil {
		pw := &PulseWire{
			FallPin: p.FallPin, RisePin: p.RisePin, LeadDir: p.LeadDir.String(),
			SepPs: p.Sep * 1e12, Factor: p.Factor, Filtered: p.Filtered, Unjudged: p.Unjudged,
		}
		if p.MinSepOK {
			pw.MinSepPs = p.MinSep * 1e12
		}
		if !p.Filtered && !p.Unjudged {
			pw.ExtremeV = p.Extreme
		}
		out.Pulse = pw
	}
	for _, de := range ne.Dirs {
		dw := ExplainDirWire{Dir: de.Dir.String(), Arrival: wireArrival(de.Arrival), Proximity: de.Proximity}
		for _, in := range de.Inputs {
			dw.Inputs = append(dw.Inputs, ExplainInputWire{Pin: in.Pin, Net: in.Net, Arrival: wireArrival(in.Arrival)})
		}
		for _, arc := range de.Arcs {
			dw.Arcs = append(dw.Arcs, ConvArcWire{
				Pin: arc.Pin, Net: arc.Net, DelayPs: arc.Delay * 1e12,
				OutTTPs: arc.OutTT * 1e12, ArrivesPs: arc.Arrives * 1e12, Winner: arc.Winner,
			})
		}
		out.Dirs = append(out.Dirs, dw)
	}
	return out
}

func (s *Server) handleBatch(c *call, req *BatchRequest) (any, error) {
	if len(req.Vectors) == 0 {
		return nil, errors.New("empty vector set")
	}
	if err := c.resolve(req.Netlist, req.Mode, req.Nets); err != nil {
		return nil, err
	}
	batch := make([][]sta.PIEvent, len(req.Vectors))
	for i, vec := range req.Vectors {
		evs, err := resolveVector(c.compiled.Circuit(), vec)
		if err != nil {
			return nil, fmt.Errorf("vector %d: %v", i, err)
		}
		batch[i] = evs
	}
	results, err := c.compiled.AnalyzeBatch(c.r.Context(), batch, c.mode, c.options(req.PulseFilter))
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		c.account(&res.Stats, 0)
	}
	return c.answer(batchAnswer, c.mode.String(), results...)
}

// maxMCSamples bounds a single Monte-Carlo request; beyond it the caller
// splits the run across requests (seeds compose: samples are pure functions
// of (seed, index), so two 32k-sample runs with distinct seeds are one 64k
// population).
const maxMCSamples = 65536

// mcSamplesPerToken converts a sample count into admission weight: every
// 256 samples cost one token beyond the base, so one 64-token server admits
// e.g. four 4096-sample runs or one 16k-sample run plus interactive traffic,
// instead of 64 concurrent 16k-sample runs.
const mcSamplesPerToken = 256

// mcWeight is the admission cost of a Monte-Carlo request, capped at the
// full semaphore so a maximal request remains admissible on an idle server.
func (s *Server) mcWeight(samples int) int {
	w := 1 + samples/mcSamplesPerToken
	if w > s.cfg.MaxInflight {
		w = s.cfg.MaxInflight
	}
	return w
}

// handleMC runs a Monte-Carlo analysis. Validation happens before admission
// (a malformed request should not consume capacity); the admission weight
// scales with the declared sample count, because one 16k-sample request
// costs as much compute as thousands of plain analyzes.
func (s *Server) handleMC(c *call, req *MCRequest) (any, error) {
	switch {
	case req.Samples <= 0:
		return nil, fmt.Errorf("samples must be positive (got %d)", req.Samples)
	case req.Samples > maxMCSamples:
		return nil, fmt.Errorf("samples must be at most %d (got %d); split larger runs across seeds",
			maxMCSamples, req.Samples)
	case req.Sigma < 0:
		return nil, fmt.Errorf("sigma must be non-negative (got %v)", req.Sigma)
	case req.Bins < 0:
		return nil, fmt.Errorf("bins must be non-negative (got %d)", req.Bins)
	}
	if err := c.resolve(req.Netlist, req.Mode, ""); err != nil {
		return nil, err
	}
	evs, err := resolveVector(c.compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	ctx, done, err := s.enter(c.w, c.r, "analyze:mc", s.mcWeight(req.Samples))
	if err != nil {
		return nil, err
	}
	c.done = done
	res, err := c.compiled.AnalyzeMC(ctx, evs, c.mode, sta.MCOptions{
		Samples: req.Samples, Seed: req.Seed, Sigma: req.Sigma,
		Corners: req.Corners, Bins: req.Bins, Options: c.options(req.PulseFilter),
	})
	if err != nil {
		return nil, err
	}
	c.account(&res.Stats, res.Samples)

	resp := mcAnswer{
		Mode: res.Mode.String(), Samples: res.Samples, Seed: res.Seed, Sigma: res.Sigma,
		Outputs:        make([]MCOutputDist, 0, len(res.Outputs)),
		Criticality:    make([]MCCriticality, 0, len(res.Criticality)),
		GatesEvaluated: res.Stats.GatesEvaluated,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	for _, od := range res.Outputs {
		wd := MCOutputDist{
			Net: od.Net.Name, Dir: od.Dir.String(), N: od.Dist.N,
			MeanPs: od.Dist.Mean * 1e12, StdPs: od.Dist.Std * 1e12,
			MinPs: od.Dist.Min * 1e12, MaxPs: od.Dist.Max * 1e12,
			P50Ps: od.Dist.P50 * 1e12, P95Ps: od.Dist.P95 * 1e12, P99Ps: od.Dist.P99 * 1e12,
		}
		if h := od.Dist.Hist; h != nil {
			wd.Hist = &MCHistWire{LoPs: h.Lo * 1e12, HiPs: h.Hi * 1e12, Counts: h.Counts}
		}
		resp.Outputs = append(resp.Outputs, wd)
	}
	for _, gc := range res.Criticality {
		resp.Criticality = append(resp.Criticality, MCCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name,
			Count: gc.Count, Probability: gc.Probability,
		})
	}
	for _, gc := range res.GlitchCriticality {
		resp.GlitchCriticality = append(resp.GlitchCriticality, MCGlitchCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name,
			Absorbed: gc.Absorbed, Degraded: gc.Degraded,
			PAbsorbed: gc.PAbsorbed, PDegraded: gc.PDegraded,
		})
	}
	nets := c.reported()
	for _, cr := range res.Corners {
		arrivals, err := cornerArrivals(cr.Result, nets)
		if err != nil {
			return nil, err
		}
		resp.Corners = append(resp.Corners, mcCorner{Name: cr.Name, Multiplier: cr.Multiplier, Arrivals: arrivals})
	}
	return resp, nil
}

// mcAnswer is MCResponse as the server writes it: the same fields, tags and
// order, with each corner's arrivals encoded straight from its result.
type mcAnswer struct {
	Mode              string                `json:"mode"`
	Samples           int                   `json:"samples"`
	Seed              uint64                `json:"seed"`
	Sigma             float64               `json:"sigma"`
	Outputs           []MCOutputDist        `json:"outputs"`
	Criticality       []MCCriticality       `json:"criticality"`
	GlitchCriticality []MCGlitchCriticality `json:"glitchCriticality,omitempty"`
	Corners           []mcCorner            `json:"corners,omitempty"`
	GatesEvaluated    int                   `json:"gatesEvaluated"`
	PulsesFiltered    int                   `json:"pulsesFiltered,omitempty"`
	PulsesDegraded    int                   `json:"pulsesDegraded,omitempty"`
	PulsesUnjudged    int                   `json:"pulsesUnjudged,omitempty"`
}

// mcCorner is MCCornerWire as the server writes it.
type mcCorner struct {
	Name       string          `json:"name"`
	Multiplier float64         `json:"multiplier"`
	Arrivals   json.RawMessage `json:"arrivals"`
}

// handleHealthz answers liveness plus occupancy: how full each LRU cache is
// and how much of the admission budget is committed — the numbers a load
// balancer or operator reads before deciding where the pressure is.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := s.order.Len()
	b := s.blOrder.Len()
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"status":       "ok",
		"netlists":     n,
		"maxNetlists":  s.cfg.MaxNetlists,
		"baselines":    b,
		"maxBaselines": s.cfg.MaxBaselines,
		"models":       s.cfg.Registry.Stats().Resident,
		"inFlight":     len(s.sem),
		"maxInflight":  s.cfg.MaxInflight,
		// Black-box occupancy: how full the wide-event ring is and how many
		// tail-sampled trace artifacts are currently retained.
		"flightEvents":      s.flight.Len(),
		"flightCap":         s.flight.Cap(),
		"retainedTraces":    s.traces.len(),
		"maxRetainedTraces": s.cfg.MaxRetainedTraces,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := s.order.Len()
	s.mu.Unlock()
	var b strings.Builder
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.metrics.writeJSON(&b, s.cfg.Registry.Stats(), n)
		w.Header().Set("Content-Type", "application/json")
	case "prom", "prometheus":
		s.metrics.writeProm(&b, s.cfg.Registry.Stats(), n)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format %q (want json or prom)", format)
		return
	}
	w.Write([]byte(b.String()))
}

// ---- request helpers -------------------------------------------------------

// scanGateTypes extracts the distinct cell types a netlist references, in
// first-use order, without building a circuit — the registry must resolve
// them before parsing can start.
func scanGateTypes(netlist string) []string {
	seen := map[string]bool{}
	var types []string
	for _, line := range strings.Split(netlist, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == "gate" && !seen[f[2]] {
			seen[f[2]] = true
			types = append(types, f[2])
		}
	}
	return types
}

func parseMode(s string) (sta.Mode, error) {
	switch s {
	case "", "prox", "proximity":
		return sta.Proximity, nil
	case "conv", "conventional":
		return sta.Conventional, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want prox or conv)", s)
}

// parseNets validates the report-scope selector with the same strictness
// parseMode applies: a typo like "al" is a 400 naming the bad value, never
// silently treated as the default.
func parseNets(s string) (netScope, error) {
	switch s {
	case "", "outputs":
		return netsOutputs, nil
	case "all":
		return netsAll, nil
	}
	return netsOutputs, fmt.Errorf("unknown nets %q (want outputs or all)", s)
}

// netScope selects which nets an analysis response reports.
type netScope int

const (
	netsOutputs netScope = iota
	netsAll
)

func parseDir(s string) (waveform.Direction, error) {
	switch s {
	case "rise", "r", "rising":
		return waveform.Rising, nil
	case "fall", "f", "falling":
		return waveform.Falling, nil
	}
	return 0, fmt.Errorf("bad direction %q (want rise or fall)", s)
}

// resolveVector maps a wire stimulus vector onto circuit nets. Unknown nets
// fail here with the net named; PI-membership, positive transition times and
// duplicate events are enforced by the engine itself.
func resolveVector(c *sta.Circuit, vec []Event) ([]sta.PIEvent, error) {
	if len(vec) == 0 {
		return nil, fmt.Errorf("empty stimulus vector")
	}
	return resolveEvents(c, "event", vec)
}

// resolveEvents is the one event resolver, shared by stimulus vectors and
// a delta's set events; what names an event in errors ("event 3").
func resolveEvents(c *sta.Circuit, what string, vec []Event) ([]sta.PIEvent, error) {
	evs := make([]sta.PIEvent, len(vec))
	for i, ev := range vec {
		n, dir, err := resolveNet(c, what, i, ev.Net, ev.Dir)
		if err != nil {
			return nil, err
		}
		evs[i] = sta.PIEvent{Net: n, Dir: dir, TT: ev.TTPs * 1e-12, Time: ev.TimePs * 1e-12}
	}
	return evs, nil
}

// resolveNet maps the i-th wire (net, direction) pair onto the circuit.
func resolveNet(c *sta.Circuit, what string, i int, net, dir string) (*sta.Net, waveform.Direction, error) {
	n := c.Net(net)
	if n == nil {
		return nil, 0, fmt.Errorf("%s %d: unknown net %q", what, i, net)
	}
	d, err := parseDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %d (net %s): %v", what, i, net, err)
	}
	return n, d, nil
}

// resolveDelta maps a wire stimulus edit onto circuit nets. Unknown nets
// fail here with the net named; PI membership, event validity, duplicates
// and the present-in-baseline requirement for removes are enforced by the
// engine. An entirely empty edit is rejected by the engine too.
func resolveDelta(c *sta.Circuit, set []Event, remove []RemoveEvent) (sta.Delta, error) {
	var delta sta.Delta
	if len(set) > 0 {
		evs, err := resolveEvents(c, "set", set)
		if err != nil {
			return sta.Delta{}, err
		}
		delta.Set = evs
	}
	for i, rm := range remove {
		n, dir, err := resolveNet(c, "remove", i, rm.Net, rm.Dir)
		if err != nil {
			return sta.Delta{}, err
		}
		delta.Remove = append(delta.Remove, sta.DeltaRemove{Net: n, Dir: dir})
	}
	return delta, nil
}
