// Command stad is the proximity-delay timing-analysis daemon: an HTTP/JSON
// server over characterized cell libraries (charz JSON files) and the
// levelized parallel STA engine.
//
//	stad -lib ./models -addr :8080
//
// Endpoints:
//
//	POST /v1/netlists       upload + levelize a netlist, returns a handle
//	POST /v1/analyze        run one stimulus vector (?trace=1 returns a
//	                        Chrome trace_event document inline)
//	POST /v1/analyze:batch  fan a vector set through the batch engine
//	POST /v1/analyze:delta  re-time a kept baseline under a stimulus edit
//	                        (analyze with keepBaseline:true returns the
//	                        baselineId; -max-baselines bounds the cache)
//	POST /v1/analyze:mc     Monte-Carlo arrival distributions under process
//	                        variation (admission weighted by samples)
//	POST /v1/explain        per-net proximity decision traces
//	GET  /healthz           liveness + cache/admission/flight occupancy
//	GET  /metrics           counters, cache stats, latency + phase
//	                        histograms (?format=prom for Prometheus text)
//	GET  /v1/debug/requests       the flight recorder: one wide event per
//	                              recent request (filters: slowest=N,
//	                              status=, endpoint=, since=)
//	GET  /v1/debug/requests/{id}  one request's full record + its retained
//	                              engine trace, when tail sampling kept one
//
// Every request carries a W3C traceparent (honored or minted, echoed in the
// response) alongside X-Request-Id; engine spans are recorded for every
// request and the Chrome trace artifact is retained when the request was
// slow (-tail-threshold), errored, or asked ?trace=1. -wide-log appends one
// JSON line per request; -top renders a live terminal dashboard by polling
// a running daemon.
//
// With -ops 127.0.0.1:6060 a second listener serves net/http/pprof under
// /debug/pprof/ plus /metrics and /healthz, so profiling and scraping stay
// off the service port. Requests are logged structurally (one line per
// request with id, endpoint, status, duration) to stderr.
//
// The server drains gracefully on SIGTERM/SIGINT: in-flight analyses finish
// (bounded by -drain), new connections are refused, and the shutdown logs
// report how many requests were in flight and how long the drain took.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		lib         = flag.String("lib", ".", "model library directory (charz JSON files)")
		cacheSize   = flag.Int("cache", 32, "model cache capacity (cells)")
		workers     = flag.Int("workers", 0, "analysis workers (0 = one per CPU)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request analysis budget")
		maxInflight = flag.Int("max-inflight", 64, "admitted concurrent requests; beyond it requests get 429")
		maxNetlists = flag.Int("max-netlists", 64, "resident compiled netlists (LRU beyond)")
		maxBase     = flag.Int("max-baselines", 128, "resident delta baselines across all netlists (LRU beyond)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful shutdown budget on SIGTERM")
		opsAddr     = flag.String("ops", "", "ops listener address (pprof + metrics; keep off the service port and firewalled), e.g. 127.0.0.1:6060")

		flightSize = flag.Int("flight", 0, "flight-recorder ring capacity in wide events (0 = 1024; negative disables the recorder, per-request span recording, and the /v1/debug surface)")
		tailThresh = flag.Duration("tail-threshold", 0, "retain a request's full engine trace when it ran at least this long (0 = 250ms; negative retains only errored or ?trace=1 requests)")
		maxTraces  = flag.Int("max-retained-traces", 32, "tail-sampled Chrome trace artifacts kept (FIFO beyond)")
		traceCap   = flag.Int("trace-event-cap", 0, "span events recorded per request before dropping (0 = 8192; negative = unlimited)")
		wideLog    = flag.String("wide-log", "", "append one JSON line per request (the full wide event) to this file")

		top         = flag.String("top", "", "live terminal view: poll a running stad at this base URL (e.g. http://127.0.0.1:8080) instead of serving")
		topInterval = flag.Duration("top-interval", time.Second, "refresh period for -top")
	)
	flag.Parse()

	if *top != "" {
		if err := runTop(*top, *topInterval); err != nil {
			fmt.Fprintf(os.Stderr, "stad: top: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := service.Config{
		Workers:            *workers,
		MaxInflight:        *maxInflight,
		RequestTimeout:     *timeout,
		MaxNetlists:        *maxNetlists,
		MaxBaselines:       *maxBase,
		FlightRecorderSize: *flightSize,
		TailThreshold:      *tailThresh,
		MaxRetainedTraces:  *maxTraces,
		TraceEventCap:      *traceCap,
	}
	if *wideLog != "" {
		f, err := os.OpenFile(*wideLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stad: wide-log: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.WideLog = f
	}
	cfg.Registry = service.NewRegistry(*lib, *cacheSize)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := serve(*addr, *opsAddr, cfg, *drain, logger); err != nil {
		fmt.Fprintf(os.Stderr, "stad: %v\n", err)
		os.Exit(1)
	}
}

// serve binds the listeners and runs the daemon until SIGTERM/SIGINT, then
// drains.
func serve(addr, opsAddr string, cfg service.Config, drain time.Duration, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var opsLn net.Listener
	if opsAddr != "" {
		if opsLn, err = net.Listen("tcp", opsAddr); err != nil {
			ln.Close()
			return fmt.Errorf("ops listener: %w", err)
		}
	}
	return serveListeners(ln, opsLn, cfg, drain, logger)
}

// serveListeners runs the service on ln (and the ops endpoints on opsLn if
// non-nil) until SIGTERM/SIGINT, then drains in-flight requests within the
// drain budget, logging what the shutdown actually waited for. Split from
// serve so tests can drive it on ephemeral ports and signal it directly.
func serveListeners(ln, opsLn net.Listener, cfg service.Config, drain time.Duration, logger *slog.Logger) error {
	cfg.Logger = logger
	svc := service.New(cfg)
	srv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if opsLn != nil {
		opsSrv := &http.Server{Handler: opsHandler(svc), ReadHeaderTimeout: 10 * time.Second}
		go opsSrv.Serve(opsLn)
		defer opsSrv.Close()
		logger.Info("ops listening", "addr", opsLn.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	bi := service.ReadBuildInfo()
	logger.Info("build", "version", bi.Version, "goVersion", bi.GoVersion, "gomaxprocs", bi.GOMAXPROCS)
	logger.Info("listening", "addr", ln.Addr().String(),
		"workers", cfg.Workers, "maxInflight", cfg.MaxInflight)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	inFlight := svc.InFlight()
	logger.Info("shutdown signal received, draining",
		"inFlight", inFlight, "budget", drain.String())
	start := time.Now()
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("drain failed", "after", time.Since(start).String(), "err", err.Error())
		return fmt.Errorf("drain: %w", err)
	}
	logger.Info("drained", "drainDur", time.Since(start).String(), "inFlightAtSignal", inFlight)
	return nil
}

// opsHandler is the operational mux: pprof for profiling a live daemon plus
// the same health and metrics endpoints the service port carries, so a
// scraper can stay entirely on the (firewalled) ops port.
func opsHandler(svc *service.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", svc)
	mux.Handle("/healthz", svc)
	return mux
}

func getJSON(url string, resp any) error {
	r, err := http.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}
