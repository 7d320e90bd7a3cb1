// Command macsd is the MACS analysis daemon: a long-lived HTTP/JSON
// server over the compile → bound → simulate → A/X → diagnose pipeline,
// with a bounded worker pool, a content-addressed result cache with
// singleflight deduplication, and metrics in JSON and Prometheus text.
//
// Usage:
//
//	macsd [-addr :8723] [-workers N] [-queue N] [-cache N]
//	      [-cache-dir DIR] [-timeout 30s] [-drain 30s]
//	      [-log text|json] [-pprof]
//	      [-runtime-sample 10s]
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same listener
// and turns on the periodic Go-runtime sampler (heap, GC pauses,
// goroutines), whose latest sample rides /metrics in both the JSON and
// Prometheus formats. -runtime-sample adjusts the sampling interval.
//
// With -cache-dir set, results also persist to a disk-backed segment
// store keyed by the same content addresses as the in-memory cache, so
// a restarted daemon serves yesterday's kernels without re-running the
// pipeline. Segments self-invalidate when the daemon's pipeline
// configuration (or the persisted schema) changes.
//
// Endpoints:
//
//	POST /v1/analyze   {"source": "...", "iterations": N, "prime": {...}};
//	                   compile, bound and simulate
//	POST /v1/batch     {"items": [{...}, ...]}; per-kernel results
//	                   stream back as NDJSON in completion order
//	POST /v1/explore   {"source": "...", "grid": {...}}; a machine-parameter
//	                   sweep, streamed back as NDJSON events
//	POST /v1/bound     {"source": "..."}
//	POST /v1/check     {"source": "..."}; static verification only
//	POST /v1/ax        {"source": "...", "prime": {...}}
//	GET  /v1/lfk/{id}  one case-study kernel (1,2,3,4,6,7,8,9,10,12)
//	GET  /v1/trace/{id} one request trace as Chrome trace_event JSON
//	GET  /healthz      liveness
//	GET  /metrics      every metric family (requests, stage latencies,
//	                   cache, queue, simulation, explore) as one JSON
//	                   object keyed by family name, in seconds;
//	                   ?format=prom: the same families as Prometheus text
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight and queued jobs, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // handlers registered on DefaultServeMux; exposed only with -pprof
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"macs/internal/service"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent pipeline executions")
	queue := flag.Int("queue", 2*runtime.NumCPU(), "pending-job queue depth (beyond it: 429)")
	cacheSize := flag.Int("cache", 512, "result cache capacity, entries")
	cacheDir := flag.String("cache-dir", "", "persistent result cache directory (empty: memory only)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout, queue wait included")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	logFormat := flag.String("log", "text", "log format: text or json")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and enable the runtime sampler")
	runtimeSample := flag.Duration("runtime-sample", 10*time.Second, "Go-runtime sampling interval (with -pprof; 0 disables)")
	flag.Parse()

	var handler slog.Handler
	if *logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	cfg := service.Config{
		Workers:        *workers,
		QueueSize:      *queue,
		CacheSize:      *cacheSize,
		CacheDir:       *cacheDir,
		RequestTimeout: *timeout,
		Logger:         log,
	}
	if *pprofOn {
		cfg.RuntimeSample = *runtimeSample
	}
	svc := service.New(cfg)
	var httpHandler http.Handler = service.NewHandler(svc)
	if *pprofOn {
		// net/http/pprof registers on http.DefaultServeMux at import; route
		// only its prefix there so the API mux keeps everything else.
		root := http.NewServeMux()
		root.Handle("/debug/pprof/", http.DefaultServeMux)
		root.Handle("/", httpHandler)
		httpHandler = root
		log.Info("pprof enabled", "path", "/debug/pprof/", "runtime_sample", *runtimeSample)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpHandler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("macsd listening", "addr", *addr, "workers", *workers, "queue", *queue, "cache", *cacheSize)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "macsd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("shutdown: draining", "budget", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Warn("shutdown: server", "err", err)
		}
		svc.Close() // wait for queued + in-flight jobs
		log.Info("shutdown: complete")
	}
}
