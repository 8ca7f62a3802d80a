package service

import (
	"expvar"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/stats"
)

// BuildInfo identifies the running binary: the module version (or VCS
// revision when built from a checkout) and the Go toolchain, plus the
// GOMAXPROCS the process runs with. Served as stad_build_info on /metrics
// and logged once at startup, so every metrics scrape and every log file
// says exactly which build produced it.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// readBuildIdentity resolves the static part of BuildInfo once.
var readBuildIdentity = sync.OnceValues(func() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, goVersion
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
		return version, goVersion
	}
	// A checkout build: identify by VCS revision (short) + dirty marker.
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		version = rev + dirty
	}
	return version, goVersion
})

// ReadBuildInfo returns the binary's identity (GOMAXPROCS read live — it can
// be lowered at runtime).
func ReadBuildInfo() BuildInfo {
	v, gv := readBuildIdentity()
	return BuildInfo{Version: v, GoVersion: gv, GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// histBounds are the latency histogram bucket upper bounds. Doubling from
// 250µs covers sub-millisecond cache-hit analyzes up to multi-second batch
// fan-outs; everything slower lands in the overflow bucket.
var histBounds = []time.Duration{
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	4 * time.Millisecond,
	8 * time.Millisecond,
	16 * time.Millisecond,
	32 * time.Millisecond,
	64 * time.Millisecond,
	128 * time.Millisecond,
	256 * time.Millisecond,
	512 * time.Millisecond,
	1024 * time.Millisecond,
	2048 * time.Millisecond,
}

// phaseBounds bucket engine-phase durations, which sit two to three orders
// of magnitude below request latencies: an analyze on a compiled handle
// spends single microseconds scheduling and tens of microseconds evaluating.
var phaseBounds = []time.Duration{
	1 * time.Microsecond,
	2 * time.Microsecond,
	4 * time.Microsecond,
	8 * time.Microsecond,
	16 * time.Microsecond,
	32 * time.Microsecond,
	64 * time.Microsecond,
	128 * time.Microsecond,
	256 * time.Microsecond,
	512 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	4 * time.Millisecond,
	8 * time.Millisecond,
	16 * time.Millisecond,
	32 * time.Millisecond,
}

// Histogram is a fixed-bucket duration histogram implementing expvar.Var:
// String renders the JSON that /metrics embeds directly.
//
// Observations share the read side of mu, so writers never wait on each
// other: an observation is two atomic adds under RLock. A snapshot takes
// the write side: it waits for in-flight observations to land and holds
// new ones back only while it copies the counters, so a rendered count and
// its sum always belong to the same set of observations.
type Histogram struct {
	bounds []time.Duration
	// boundsNs mirrors bounds as float64 nanoseconds, the coordinate system
	// stats.BucketQuantile interpolates in.
	boundsNs []float64
	counts   []atomic.Int64 // len(bounds)+1; last bucket is overflow
	sum      atomic.Int64   // nanoseconds
	mu       sync.RWMutex   // shared by Observe, exclusive to snapshot
}

func newHistogram(bounds []time.Duration) *Histogram {
	ns := make([]float64, len(bounds))
	for i, b := range bounds {
		ns[i] = float64(b)
	}
	return &Histogram{bounds: bounds, boundsNs: ns, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration. Safe for any number of concurrent callers;
// it waits only while a snapshot copies the counters.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.mu.RLock()
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.mu.RUnlock()
}

// snapshot takes a consistent read of the histogram: counts, their total,
// and the matching sum. total is the sum of the loaded buckets, so buckets
// always add up to the reported count.
func (h *Histogram) snapshot() (counts []int64, total int64, sum time.Duration) {
	counts = make([]int64, len(h.counts))
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total, time.Duration(h.sum.Load())
}

// quantile estimates the q-quantile (0 < q < 1) through the shared
// stats.BucketQuantile interpolator: linear inside the bucket holding the
// target rank, ranks landing in the edge-less overflow bucket clamped to
// the last finite bound (a deliberate under-estimate rather than a
// fabricated tail), zero for an empty histogram.
func (h *Histogram) quantile(counts []int64, q float64) time.Duration {
	return time.Duration(stats.BucketQuantile(q, h.boundsNs, counts))
}

// String renders
// {"count":N,"meanMs":M,"p50Ms":…,"p95Ms":…,"p99Ms":…,"buckets":{"<=1ms":k,…}}
// with empty buckets elided, so the histogram drops straight into /metrics
// JSON. An empty histogram renders explicitly with zeroes — no division by
// a zero count ever happens.
func (h *Histogram) String() string {
	counts, total, sum := h.snapshot()
	if total == 0 {
		return `{"count":0,"meanMs":0,"p50Ms":0,"p95Ms":0,"p99Ms":0,"buckets":{}}`
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"meanMs":%.3f,"p50Ms":%.3f,"p95Ms":%.3f,"p99Ms":%.3f,"buckets":{`,
		total, ms(sum)/float64(total),
		ms(h.quantile(counts, 0.50)),
		ms(h.quantile(counts, 0.95)),
		ms(h.quantile(counts, 0.99)))
	first := true
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		if i < len(h.bounds) {
			fmt.Fprintf(&b, `"<=%s":%d`, h.bounds[i], c)
		} else {
			fmt.Fprintf(&b, `">%s":%d`, h.bounds[len(h.bounds)-1], c)
		}
	}
	b.WriteString("}}")
	return b.String()
}

// writeProm renders the histogram in Prometheus text exposition format
// (cumulative le buckets, seconds). labels is either empty or a single
// `key="value"` pair applied to every sample of this histogram.
func (h *Histogram) writeProm(b *strings.Builder, name, labels string) {
	counts, total, sum := h.snapshot()
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatSeconds(h.bounds[i])
		}
		if labels == "" {
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
		} else {
			fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatSeconds(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, total)
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// Metrics aggregates the server's counters on expvar primitives. The vars
// are intentionally NOT published to the global expvar registry — multiple
// servers (tests, bench harnesses) would collide on names; /metrics serves
// them per instance instead.
type Metrics struct {
	Requests  expvar.Map // per-endpoint request counts
	Status2xx expvar.Int
	Status4xx expvar.Int
	Status5xx expvar.Int
	// Canceled counts 499s — the client went away mid-request. Kept out of
	// the 4xx class: a disconnect is neither a malformed request nor a
	// server timeout, and folding it into either poisons alerting.
	Canceled expvar.Int

	// Workload counters, fed from sta.Result.Stats.
	Vectors        expvar.Int // stimulus vectors analyzed
	GatesEvaluated expvar.Int
	ProximityEvals expvar.Int
	SingleArcEvals expvar.Int

	// Monte-Carlo workload: runs and total samples drawn. Samples are the
	// capacity-relevant number (one 16k-sample run costs what thousands of
	// plain analyzes do), so both are first-class.
	MCRuns    expvar.Int
	MCSamples expvar.Int

	// Pulse-filtering workload: opposite-edge pairs Section-6 filtering
	// absorbed outright, pairs that survived with a degraded transition
	// time, and pairs the library carries no glitch model for (propagated
	// untouched — the model-coverage blind spot an operator should watch).
	// Zero unless pulseFilter requests arrive.
	PulsesFiltered expvar.Int
	PulsesDegraded expvar.Int
	PulsesUnjudged expvar.Int

	// Panics counts analyses that failed with a panic the engine recovered
	// (answered 500): a defect in a model, a backend or the engine. Any
	// nonzero value deserves a look at the logged error.
	Panics expvar.Int

	// phases aggregates the engine's per-phase wall timings across every
	// analysis this server ran, one histogram per obs.Phase.
	phases [obs.NumPhases]*Histogram

	mu      sync.Mutex
	latency map[string]*Histogram // per endpoint
}

func newMetrics() *Metrics {
	m := &Metrics{latency: map[string]*Histogram{}}
	m.Requests.Init()
	for _, p := range obs.Phases() {
		m.phases[p] = newHistogram(phaseBounds)
	}
	return m
}

// Latency returns (creating on first use) the named endpoint's histogram.
func (m *Metrics) Latency(endpoint string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram(histBounds)
		m.latency[endpoint] = h
	}
	return h
}

// Phase returns the named engine phase's histogram (for tests).
func (m *Metrics) Phase(p obs.Phase) *Histogram { return m.phases[p] }

// observe records one finished request.
func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	m.Requests.Add(endpoint, 1)
	switch {
	case status >= 500:
		m.Status5xx.Add(1)
	case status == StatusClientClosedRequest:
		m.Canceled.Add(1)
	case status >= 400:
		m.Status4xx.Add(1)
	case status >= 200 && status < 300:
		// Implicit 200s (Write with no WriteHeader) land here too — the
		// statusWriter records them on first Write, so the class counters
		// always sum to the request count.
		m.Status2xx.Add(1)
	}
	m.Latency(endpoint).Observe(d)
}

// addAnalysis folds one analysis's counters and phase timings into the
// workload totals. A Monte-Carlo run (mcSamples > 0) counts as one run of
// that many samples, anything else as one vector. Only the phases the
// analysis spent time in are recorded: a phase a call never ran — glitch
// without pulse filtering, the consumer-table build after the first walk,
// delta outside a delta, mc outside Monte-Carlo — reads zero, and
// recording those zeroes would flood its histogram until the percentiles
// read 0.
func (m *Metrics) addAnalysis(st *sta.Stats, mcSamples int) {
	if mcSamples > 0 {
		m.MCRuns.Add(1)
		m.MCSamples.Add(int64(mcSamples))
	} else {
		m.Vectors.Add(1)
	}
	m.GatesEvaluated.Add(int64(st.GatesEvaluated))
	m.ProximityEvals.Add(int64(st.ProximityEvals))
	m.SingleArcEvals.Add(int64(st.SingleArcEvals))
	m.PulsesFiltered.Add(int64(st.PulsesFiltered))
	m.PulsesDegraded.Add(int64(st.PulsesDegraded))
	m.PulsesUnjudged.Add(int64(st.PulsesUnjudged))
	for _, p := range obs.Phases() {
		if d := st.Phases[p]; d > 0 {
			m.phases[p].Observe(d)
		}
	}
}

// writeJSON renders the full metrics document. Every embedded value is an
// expvar.Var String() (already valid JSON), composed by hand so no
// marshaling intermediate is needed.
func (m *Metrics) writeJSON(b *strings.Builder, reg RegistryStats, netlists int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bi := ReadBuildInfo()
	b.WriteString("{\n")
	fmt.Fprintf(b, ` "buildInfo": {"version":%q,"goVersion":%q,"gomaxprocs":%d},`+"\n",
		bi.Version, bi.GoVersion, bi.GOMAXPROCS)
	fmt.Fprintf(b, ` "requests": %s,`+"\n", m.Requests.String())
	fmt.Fprintf(b, ` "status2xx": %s, "status4xx": %s, "status5xx": %s, "statusCanceled": %s,`+"\n",
		m.Status2xx.String(), m.Status4xx.String(), m.Status5xx.String(), m.Canceled.String())
	fmt.Fprintf(b, ` "vectors": %s, "gatesEvaluated": %s, "proximityEvals": %s, "singleArcEvals": %s,`+"\n",
		m.Vectors.String(), m.GatesEvaluated.String(), m.ProximityEvals.String(), m.SingleArcEvals.String())
	fmt.Fprintf(b, ` "mcRuns": %s, "mcSamples": %s,`+"\n", m.MCRuns.String(), m.MCSamples.String())
	fmt.Fprintf(b, ` "pulsesFiltered": %s, "pulsesDegraded": %s, "pulsesUnjudged": %s, "panics": %s,`+"\n",
		m.PulsesFiltered.String(), m.PulsesDegraded.String(), m.PulsesUnjudged.String(), m.Panics.String())
	fmt.Fprintf(b, ` "modelCache": {"hits":%d,"misses":%d,"evictions":%d,"loadErrors":%d,"resident":%d},`+"\n",
		reg.Hits, reg.Misses, reg.Evictions, reg.LoadErrors, reg.Resident)
	fmt.Fprintf(b, ` "netlistsResident": %d,`+"\n", netlists)
	fmt.Fprintf(b, ` "goroutines": %d, "heapAllocBytes": %d,`+"\n", runtime.NumGoroutine(), ms.HeapAlloc)
	b.WriteString(` "phases": {`)
	for i, p := range obs.Phases() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "\n  %q: %s", p.String(), m.phases[p].String())
	}
	b.WriteString("\n },\n")
	b.WriteString(` "latencies": {`)
	m.mu.Lock()
	names := make([]string, 0, len(m.latency))
	for name := range m.latency {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "\n  %q: %s", name, m.Latency(name).String())
	}
	b.WriteString("\n }\n}\n")
}

// writeProm renders the same counters in Prometheus text exposition format
// (version 0.0.4), for /metrics?format=prom. Metric names carry the stad_
// prefix; durations are seconds per Prometheus convention.
func (m *Metrics) writeProm(b *strings.Builder, reg RegistryStats, netlists int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	bi := ReadBuildInfo()
	b.WriteString("# HELP stad_build_info Build identity; value is always 1, the labels carry the information.\n# TYPE stad_build_info gauge\n")
	fmt.Fprintf(b, "stad_build_info{version=%q,goversion=%q,gomaxprocs=\"%d\"} 1\n",
		bi.Version, bi.GoVersion, bi.GOMAXPROCS)

	b.WriteString("# HELP stad_requests_total Requests served, by endpoint.\n# TYPE stad_requests_total counter\n")
	type kv struct {
		k string
		v string
	}
	var reqs []kv
	m.Requests.Do(func(e expvar.KeyValue) { reqs = append(reqs, kv{e.Key, e.Value.String()}) })
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].k < reqs[j].k })
	for _, e := range reqs {
		fmt.Fprintf(b, "stad_requests_total{endpoint=%q} %s\n", e.k, e.v)
	}

	b.WriteString("# HELP stad_responses_total Responses sent, by status class.\n# TYPE stad_responses_total counter\n")
	fmt.Fprintf(b, "stad_responses_total{class=\"2xx\"} %d\n", m.Status2xx.Value())
	fmt.Fprintf(b, "stad_responses_total{class=\"4xx\"} %d\n", m.Status4xx.Value())
	fmt.Fprintf(b, "stad_responses_total{class=\"5xx\"} %d\n", m.Status5xx.Value())
	fmt.Fprintf(b, "stad_responses_total{class=\"canceled\"} %d\n", m.Canceled.Value())

	for _, c := range []struct {
		name, help string
		val        int64
	}{
		{"stad_vectors_total", "Stimulus vectors analyzed.", m.Vectors.Value()},
		{"stad_gates_evaluated_total", "Gate evaluations performed.", m.GatesEvaluated.Value()},
		{"stad_proximity_evals_total", "Multi-input proximity evaluations.", m.ProximityEvals.Value()},
		{"stad_single_arc_evals_total", "Single-arc evaluations.", m.SingleArcEvals.Value()},
		{"stad_mc_runs_total", "Monte-Carlo analyses run.", m.MCRuns.Value()},
		{"stad_mc_samples_total", "Monte-Carlo samples drawn.", m.MCSamples.Value()},
		{"stad_pulses_filtered_total", "Runt pulses absorbed by Section-6 filtering.", m.PulsesFiltered.Value()},
		{"stad_pulses_degraded_total", "Runt pulses propagated with degraded transition time.", m.PulsesDegraded.Value()},
		{"stad_pulses_unjudged_total", "Runt pulses with no glitch model to judge them (propagated untouched).", m.PulsesUnjudged.Value()},
		{"stad_panics_total", "Analyses failed by a panic the engine recovered (answered 500).", m.Panics.Value()},
		{"stad_model_cache_hits_total", "Model registry cache hits.", reg.Hits},
		{"stad_model_cache_misses_total", "Model registry cache misses.", reg.Misses},
		{"stad_model_cache_evictions_total", "Model registry evictions.", reg.Evictions},
		{"stad_model_cache_load_errors_total", "Model registry load failures.", reg.LoadErrors},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.val)
	}

	for _, g := range []struct {
		name, help string
		val        int64
	}{
		{"stad_model_cache_resident", "Macromodels resident in the registry cache.", int64(reg.Resident)},
		{"stad_netlists_resident", "Compiled netlists resident.", int64(netlists)},
		{"stad_goroutines", "Live goroutines.", int64(runtime.NumGoroutine())},
		{"stad_heap_alloc_bytes", "Heap bytes in use.", int64(ms.HeapAlloc)},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.val)
	}

	b.WriteString("# HELP stad_request_duration_seconds Request latency, by endpoint.\n# TYPE stad_request_duration_seconds histogram\n")
	m.mu.Lock()
	names := make([]string, 0, len(m.latency))
	for name := range m.latency {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		m.Latency(name).writeProm(b, "stad_request_duration_seconds", fmt.Sprintf("endpoint=%q", name))
	}

	b.WriteString("# HELP stad_phase_duration_seconds Engine phase wall time per analysis, by phase.\n# TYPE stad_phase_duration_seconds histogram\n")
	for _, p := range obs.Phases() {
		m.phases[p].writeProm(b, "stad_phase_duration_seconds", fmt.Sprintf("phase=%q", p.String()))
	}
}
