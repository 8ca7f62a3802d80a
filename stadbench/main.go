// Command stadbench is the repository's benchmark: it measures the stad
// timing daemon end to end on three workloads (BENCHMARK.json lists two of
// them) and, in a separate traced run, attributes each workload's cost to
// the layers a request crosses.
//
//	bash stadbench/run.sh --workload sweep-full --seed 1 --seconds 15 --trace 0
//
// run.sh builds cmd/stad and this program from the checkout into
// .bench_build and runs it from the repository root. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics (the end-to-end set with --trace 0, the per-layer set with
// --trace 1). The lines before it print every metric with its unit.
//
// # Fixture
//
// Every input derives from --seed: the netlist is sta.SynthTiled(240, 8,
// 50) — 12,000 gates, 1,920 primary inputs, about 3,100 outputs — over the
// synthetic inv/nand2/nand3 models (macromodel.SynthModel) written as charz
// JSON files that stad's registry loads. stad runs at its defaults; only
// -lib and -addr are set. The tiling cannot grow: sta.ParseNetlist reads
// with a 64 KiB line limit, and the `output` line sta.WriteNetlist emits for
// a 30,000-gate tiling is 68 KB, so the upload is refused with "token too
// long". That is a parser defect; the benchmark does not re-wrap lines to
// hide it.
//
// # Workloads
//
// Each workload is one caller that waits for every reply before sending the
// next request (a closed loop on one keep-alive connection): a sweep
// script, a designer's edit loop, a variation study. The host has two
// cores; an open-loop generator would compete with stad for them and
// measure the scheduler, so arrival schedules, admission and 429s are out
// of scope.
//
//   - sweep-full: /v1/analyze:batch with two full-activity vectors per
//     request (every primary input switches). Every gate evaluates and the
//     engine's evaluation and commit are most of the server time, so
//     per-gate evaluation (core → macromodel → table) shows here; delta,
//     Monte-Carlo and cone pruning are bypassed. Building and encoding its
//     1.2 MB answers is about a third of the server time, so of
//     BENCHMARK.json's workloads this is where the service layer shows.
//   - eco-interactive: one kept full-activity baseline, then single-input
//     timing edits through /v1/analyze:delta; every fourth edit is kept as
//     the next baseline and the rest are what-if probes. The engine
//     re-evaluates a few dozen gates while the server builds and encodes
//     arrivals for every output, and kept edits fill the 128-entry baseline
//     cache to its memory plateau, so the service and memory layers show
//     and per-gate evaluation does not. The warm-up fills the cache before
//     measuring, because peak RSS is steady only at the cap. This workload
//     runs by hand but is not one of BENCHMARK.json's: see the noise
//     section.
//   - mc-glitch: /v1/analyze:mc, 128 samples, sigma 0.05, pulse filtering on,
//     over a runt-heavy stimulus on four tiles (BENCH_glitch's shape: times
//     folded into 160 ps, alternating directions; successive requests walk
//     the tiles and draw a new Monte-Carlo seed). Nearly all server time is
//     the sample loop and pulse judging behind a small response, so mc and
//     the glitch path show and the service layer does not.
//
// # Correctness
//
// Every answer is checked bit for bit, in wire picoseconds, against an
// in-process reference built from the same library files and netlist text,
// outside the timed loop: sweep-full against Compiled.AnalyzeBatch, each
// eco-interactive delta against a full Compiled.Analyze of the cumulatively
// edited vector, mc-glitch against Compiled.AnalyzeMC at the same seed. A
// run also fails when a workload stops exercising its layer: a sweep vector
// must evaluate all 12,000 gates, a delta must re-evaluate under 1% of
// them and eco-interactive must see 128 resident baselines on /healthz
// before measuring, and an mc-glitch request must judge at least as many
// pulses as it drew samples (the answer carries only the request's totals).
//
// # End-to-end metrics (--trace 0)
//
// setup_s is the median, over 21 cold starts in the run (the least contended
// of up to 26, see below), of the time from launching a fresh stad process
// to the last byte of its first answer of the workload's kind: health check,
// registry load, upload (parse + compile), cone build and one request (for
// eco-interactive the kept baseline). Inputs are generated and requests
// marshaled before the clock starts; the answer is decoded and verified
// after it stops, and a cold start whose answer fails verification fails the
// run. The last cold-started daemon then serves the measured loop. p50_ms
// and p90_ms are client-observed latencies, from writing the request to
// reading the last byte of the answer. queries_per_s is the requests
// completed per second a request was outstanding: the caller decodes and
// checks each answer between requests, while stad is idle, and that time is
// the benchmark's, not stad's. cpu_ms_per_req is stad's user+system CPU
// (/proc/<pid>/stat) over the loop per request; peak_rss_mb is stad's VmHWM
// at the end of the run. The failed share — failed ÷ attempted, from the
// result's own fields — is printed with the metrics but is not one of them,
// because it reads 0 on every passing run.
//
// # Noise on a shared two-core host
//
// A fixed 58 ms CPU loop on this class of host has a 4–20% interquartile
// spread, its median drifts ±5% minute to minute, and single iterations
// spike past 2×; stad's own CPU time per request drifts about ±10% between
// consecutive runs of the same seed. Single cold starts within one run range
// over about 2×, so no single ~0.1 s event can repeat within a tenth: setup_s
// is a median of many cold starts. stad runs as a child process because an
// in-process server shares the load generator's heap and garbage collector;
// the benchmark still collects its own garbage only between requests (its
// collector is off while a request is in flight) and before each cold
// start. Every request stays far below stad's 250 ms tail-sampling
// threshold, so none pays trace retention on a random subset.
//
// The largest swings come from other guests: when the hypervisor steals
// 15–40% of the host's CPU time (the steal column of /proc/stat) for minutes
// at a time, p90 rises by half or more. The loop therefore runs in
// quarter-second blocks and records each block's stolen share; a run whose
// blocks or cold starts see more than one stolen clock tick in forty
// measures up to a quarter longer (up to 26 cold starts) and reports the
// least-contended --seconds of blocks and 21 cold starts. Contention that
// outlasts a run still shows in its figures.
//
// Without any steal, the host's speed also drifts: over ten interleaved
// runs of each workload in about fifteen minutes, stad's CPU time per
// request rose by a third to a half and fell back, in streaks of several
// minutes that both workloads shared, and p50 followed it. No selection
// inside a run of seconds removes that; it is the largest part of the
// run-to-run spread.
//
// Steal accrues mostly while a CPU wakes from idle: during the closed loop,
// where stad idles while the caller decodes, contended minutes stole 5–28%,
// and in the same minutes the verification that keeps both CPUs busy saw
// under 1%. The shorter a request, the more of its latency such wake-ups
// are. eco-interactive's requests take about 7 ms, and in contended
// minutes its p90 rose from about 8.5 ms to 11–15 ms (its p50 by a tenth
// to a quarter) with no clean quarter-second left to select; ten runs of
// the same code then spread by 24–40% of their median, past the 25% any
// bound may allow. It is therefore not in BENCHMARK.json, and the delta
// phase and baseline cache are measured only when it is run by hand. In
// the same sets of runs the 70–80 ms requests of sweep-full and mc-glitch
// stayed within every bound.
//
// # Traced run (--trace 1)
//
// The traced run cold-starts one daemon and alternates untraced and traced
// requests: each traced request carries X-Request-Id and a W3C traceparent,
// and its wide event from /v1/debug/requests/{id} joins the client span as
// stad's span of the same trace. It then re-runs the
// session's first requests after warm-up in-process, at stad's options,
// timing calls into each layer's public functions on the same inputs:
// registry load, parse, compile and cone build; the engine entry points
// (Stats.Phases and counters, with Monte-Carlo samples re-run one by one
// to break out their interior phases); core.Calculator.Evaluate on gate
// inputs rebuilt from the results' arrivals; the GateModel lookups and
// table.Grid interpolations one evaluation performs (at the pins and
// coordinates EvaluateExplain reports); core.EvaluatePulse on the judged
// pairs; and mc.Multiplier and mc.NewDist. sta.eval_yield is gates that
// produced an arrival per gate scheduled for a full analysis, and gates
// whose output changed per gate re-evaluated for a delta. Spans and counts
// stay in memory until the end, where they are written as a Chrome
// trace_event file (.bench_build/trace-<workload>-seed<n>.json, accepted by
// `go run ./cmd/sta -validate-trace`); self time is a span minus its
// children, and service.transport_ms is the client span's self time.
// trace.p50_overhead is the traced requests' p50 over the untraced ones'.
// Every per-layer metric is printed; one a workload cannot exercise is
// printed as unmeasured with the reason (its JSON value is 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var workloads = map[string]func(*fixture) (workload, error){
	"sweep-full":      func(fx *fixture) (workload, error) { return newSweepFull(fx) },
	"eco-interactive": func(fx *fixture) (workload, error) { return newEcoInteractive(fx) },
	"mc-glitch":       func(fx *fixture) (workload, error) { return newMCGlitch(fx) },
}

func main() {
	var (
		name    = flag.String("workload", "", "sweep-full, eco-interactive or mc-glitch")
		seed    = flag.Int64("seed", 1, "workload seed; the netlist, stimuli and Monte-Carlo seeds derive from it")
		seconds = flag.Float64("seconds", 15, "measured duration")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		stad    = flag.String("stad", "", "stad binary")
		root    = flag.String("root", ".", "repository root (scratch files go under its .bench_build)")
	)
	flag.Parse()
	ok, err := run(*name, *seed, *seconds, *trace == 1, *stad, *root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stadbench: %v\n", err)
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and prints its metrics; ok is false when the
// run failed, whether or not it printed a result.
func run(name string, seed int64, seconds float64, traced bool, stad, root string) (ok bool, err error) {
	mk, known := workloads[name]
	if !known {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if stad == "" || seconds <= 0 {
		return false, fmt.Errorf("need -stad and a positive --seconds")
	}
	dir, err := workDir(root)
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	fx, err := newFixture(seed, dir)
	if err != nil {
		return false, err
	}
	w, err := mk(fx)
	if err != nil {
		return false, err
	}
	dur := time.Duration(seconds * float64(time.Second))
	var ms []metric
	var s *session
	if traced {
		tracePath := filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		ms, s, err = tracedRun(stad, fx, w, dur, tracePath)
	} else {
		ms, s, err = endToEnd(stad, fx, w, dur)
	}
	if err != nil {
		if s.attempted == 0 {
			return false, err
		}
		if s.firstErr == nil {
			s.fail(err) // a failure after requests were sent still prints a result
		}
	}
	fmt.Printf("stadbench: workload %s, seed %d, %d gates, %.0f s measured, trace %v\n",
		name, seed, fx.gates(), seconds, traced)
	for _, m := range ms {
		if m.unmeasured {
			fmt.Printf("  %-28s unmeasured: %s\n", m.name, m.note)
			continue
		}
		fmt.Printf("  %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Printf("  %-28s %14.6g %-8s %d of %d requests\n", "failed_share", float64(s.failed)/float64(max(s.attempted, 1)), "fraction", s.failed, s.attempted)
	if s.firstErr != nil {
		fmt.Printf("  first failure: %v\n", s.firstErr)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
