package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// coldStarts is how many uncontended fresh daemons each run launches;
// setup_s is their median. Single cold starts within one run range over
// about 2× on a shared two-core host, so one per run cannot repeat within a
// tenth.
const coldStarts = 21

// session counts every request a run sends and every answer that failed:
// a non-2xx, a transport error, a guard, or a verification mismatch.
type session struct {
	attempted, failed int
	firstErr          error
}

func (s *session) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// post sends one workload request and returns its latency; the answer is
// left in buf for check. The caller's decoding runs after the clock stops.
func (s *session) post(d *daemon, req request, hdr http.Header, buf *bytes.Buffer) (time.Duration, bool) {
	s.attempted++
	status, lat, err := d.do(http.MethodPost, req.path, req.body, hdr, buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", req.path, status, bytes.TrimSpace(buf.Bytes()))
	}
	if err != nil {
		s.fail(err)
		return lat, false
	}
	return lat, true
}

// answer hands the answer in buf to the workload.
func (s *session) answer(w workload, buf *bytes.Buffer) bool {
	if err := w.answer(buf.Bytes()); err != nil {
		s.fail(err)
		return false
	}
	return true
}

// coldStart launches a fresh daemon and returns it with the time from
// launch to its first verified answer: health check, registry load,
// upload (parse + compile), cone build and the workload's first request.
func (s *session) coldStart(bin string, fx *fixture, w workload, tr *tracer) (*daemon, time.Duration, error) {
	runtime.GC() // keep the benchmark's own collector out of the interval
	sp := tr.begin("bench", "cold start")
	t0 := time.Now()
	d, err := startDaemon(bin, fx.libDir)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	hs := tr.begin("service", "GET /healthz")
	var h health
	err = d.getJSON("/healthz", &h)
	tr.end(hs)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	up := tr.begin("service", "POST /v1/netlists")
	s.attempted++
	status, _, err := d.do(http.MethodPost, "/v1/netlists", fx.upload, nil, &buf)
	tr.end(up, "bytes", len(fx.upload))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("upload: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	var handle service.UploadResponse
	if err == nil {
		err = decode(buf.Bytes(), &handle)
	}
	if err != nil {
		s.fail(err)
		d.stop()
		return nil, 0, err
	}
	req := w.begin(handle.ID)
	fs := tr.begin("service", "POST "+req.path)
	_, ok := s.post(d, req, nil, &buf)
	setup := time.Since(t0)
	tr.end(fs)
	tr.end(sp)
	// The answer is verified after the clock stops: decoding it is the
	// caller's cost, not stad's.
	if !ok || !s.answer(w, &buf) {
		d.stop()
		return nil, 0, s.firstErr
	}
	return d, setup, nil
}

// loop is one closed-loop measurement: the latencies of the requests in
// the blocks it reports, and the daemon CPU those blocks consumed.
type loop struct {
	lat      []time.Duration
	cpu      time.Duration
	measured time.Duration // wall time of every block, reported or not
	steal    float64       // mean stolen share of the reported blocks
}

// gcEvery is how many answer bytes the caller decodes between collections
// of its own heap during a measured loop.
const gcEvery = 16 << 20

// Contention on a shared host shows up as steal in /proc/stat: time the
// hypervisor ran another guest while this one's CPUs wanted to run. A
// quarter-second block of the loop, or a cold start, during which more than
// stealLimit of the host's CPU time was stolen counts as contended; the
// run then measures up to a quarter longer and reports the
// least-contended share. A block holds about 50 clock ticks of two CPUs, so
// the limit lets one stolen tick through; a quiet host steals none in most
// blocks. Contention that outlasts the extra time still shows in every
// metric: the host, not stad, is slower then.
const (
	stealLimit = 0.025
	blockDur   = 250 * time.Millisecond
)

// block is about blockDur of the measured loop.
type block struct {
	lat   []time.Duration
	wall  time.Duration
	cpu   time.Duration
	steal float64
}

// measure sends requests back to back in blocks until dur of uncontended
// blocks (or 1.25 × dur in all) have run, and reports the
// least-contended blocks adding up to dur. The caller decodes and checks
// each answer between requests, while stad is idle, and collects its own
// garbage only there too, so the benchmark's collector never runs while a
// request is in flight. hdr and after, when set, wrap each request for the
// traced run.
func (s *session) measure(d *daemon, w workload, dur time.Duration, hdr func(k int) http.Header, after func(k int, lat time.Duration, size int)) (loop, error) {
	var l loop
	var buf bytes.Buffer
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var blocks []block
	var clean time.Duration
	decoded, k, failed := 0, 0, false
	for start := time.Now(); clean < dur && time.Since(start) < dur+dur/4 && !failed; {
		var b block
		cpu0, err := d.cpu()
		st0, err2 := readSteal()
		if err = errors.Join(err, err2); err != nil {
			return l, err
		}
		for t0 := time.Now(); time.Since(t0) < blockDur; k++ {
			var h http.Header
			if hdr != nil {
				h = hdr(k)
			}
			lat, ok := s.post(d, w.next(), h, &buf)
			if after != nil {
				after(k, lat, buf.Len())
			}
			if !ok || !s.answer(w, &buf) {
				failed = true // the run has failed; stop loading the daemon
				break
			}
			b.lat = append(b.lat, lat)
			if decoded += buf.Len(); decoded > gcEvery {
				runtime.GC()
				decoded = 0
			}
			b.wall = time.Since(t0)
		}
		cpu1, err := d.cpu()
		st1, err2 := readSteal()
		if err = errors.Join(err, err2); err != nil {
			return l, err
		}
		b.cpu, b.steal = cpu1-cpu0, st1.since(st0)
		if b.steal <= stealLimit {
			clean += b.wall
		}
		l.measured += b.wall
		blocks = append(blocks, b)
	}
	slices.SortStableFunc(blocks, func(a, b block) int { return cmp.Compare(a.steal, b.steal) })
	var wall time.Duration
	for _, b := range blocks {
		if wall >= dur {
			break
		}
		wall += b.wall
		l.lat = append(l.lat, b.lat...)
		l.cpu += b.cpu
		l.steal += b.steal * b.wall.Seconds()
	}
	l.steal /= max(wall.Seconds(), 1e-9)
	return l, nil
}

// stealMeter is a reading of the host's CPU time and the part of it the
// hypervisor stole, in clock ticks (the first line of /proc/stat).
type stealMeter struct{ steal, total uint64 }

func readSteal() (stealMeter, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMeter{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var m stealMeter
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealMeter{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		m.total += n
		if i == 7 {
			m.steal = n
		}
	}
	return m, nil
}

// since returns the stolen share of the host's CPU time since prev.
func (m stealMeter) since(prev stealMeter) float64 {
	if m.total <= prev.total {
		return 0
	}
	return float64(m.steal-prev.steal) / float64(m.total-prev.total)
}

// warm sends the workload's warm-up requests and checks readiness.
func (s *session) warm(d *daemon, w workload) error {
	var buf bytes.Buffer
	for i := 0; i < w.warmup(); i++ {
		if _, ok := s.post(d, w.next(), nil, &buf); !ok || !s.answer(w, &buf) {
			return s.firstErr
		}
	}
	if err := w.ready(d); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// check verifies every recorded answer in-process.
func (s *session) check(w workload) error {
	_, failed, err := w.verify()
	if err != nil {
		return err
	}
	for i := 0; i < failed; i++ {
		s.fail(fmt.Errorf("answer differs from its in-process reference"))
	}
	return nil
}

// endToEnd is the untraced measurement: coldStarts fresh daemons for
// setup_s, then one closed loop of dur on the last of them.
func endToEnd(bin string, fx *fixture, w workload, dur time.Duration) ([]metric, *session, error) {
	s := &session{}
	type cold struct{ setup, steal float64 }
	var colds []cold
	var d *daemon
	for clean := 0; clean < coldStarts && len(colds) < coldStarts+coldStarts/4; {
		if d != nil {
			d.stop()
		}
		st0, err := readSteal()
		if err != nil {
			return nil, s, err
		}
		var setup time.Duration
		if d, setup, err = s.coldStart(bin, fx, w, nil); err != nil {
			return nil, s, err
		}
		st1, err := readSteal()
		if err != nil {
			d.stop()
			return nil, s, err
		}
		c := cold{setup.Seconds(), st1.since(st0)}
		if c.steal <= stealLimit {
			clean++
		}
		colds = append(colds, c)
	}
	defer d.stop()
	slices.SortStableFunc(colds, func(a, b cold) int { return cmp.Compare(a.steal, b.steal) })
	var setups []float64
	for _, c := range colds[:coldStarts] {
		setups = append(setups, c.setup)
	}
	if err := s.warm(d, w); err != nil {
		return nil, s, err
	}
	l, err := s.measure(d, w, dur, nil, nil)
	if err != nil {
		return nil, s, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, s, err
	}
	d.stop()
	if err := s.check(w); err != nil {
		return nil, s, err
	}
	n := float64(len(l.lat))
	ms := durationsMs(l.lat)
	var busy time.Duration
	for _, d := range l.lat {
		busy += d
	}
	return []metric{
		{name: "setup_s", unit: "s", value: median(setups),
			note: fmt.Sprintf("median of the %d least-contended of %d cold starts, range %.3f–%.3f", len(setups), len(colds), slices.Min(setups), slices.Max(setups))},
		{name: "p50_ms", unit: "ms", value: quantile(ms, 0.5),
			note: fmt.Sprintf("%d requests in the least-contended %.0f s of %.1f s measured, %.1f%% stolen", len(ms), dur.Seconds(), l.measured.Seconds(), 100*l.steal)},
		{name: "p90_ms", unit: "ms", value: quantile(ms, 0.9), note: fmt.Sprintf("%d requests beyond it", len(ms)-int(math.Ceil(0.9*n)))},
		{name: "queries_per_s", unit: "1/s", value: n / busy.Seconds(), note: "per second a request was outstanding"},
		{name: "cpu_ms_per_req", unit: "ms", value: float64(l.cpu) / float64(time.Millisecond) / n},
		{name: "peak_rss_mb", unit: "MB", value: rss},
	}, s, nil
}

// metric is one reported number; note explains it, or says why it could
// not be measured on this workload.
type metric struct {
	name, unit string
	value      float64
	note       string
	unmeasured bool
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the midpoint median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// workDir is the run's scratch directory inside the checkout.
func workDir(root string) (string, error) {
	dir := fmt.Sprintf("%s/.bench_build/run-%d", root, os.Getpid())
	return dir, os.MkdirAll(dir, 0o755)
}
