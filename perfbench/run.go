package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"time"
)

// untracedRun measures the end-to-end metrics: set-up (several times,
// median), then one window of closed-loop requests through the handler,
// then the output checks.
func untracedRun(name string, sp spec, opts options, out io.Writer) (*result, error) {
	wl, err := sp.build(opts.seed, opts.seconds, 0)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	svc, h, warmCycles, setup, err := setUpMedian(wl, opts.setups)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if err := wl.prepare(h); err != nil {
		return nil, err
	}
	w := runWindow(h, wl, opts.seconds, sp.slice)
	res, err := checkWindow(wl, h, w)
	if err != nil {
		return nil, err
	}
	tp, err := wl.tpErrPct(h)
	if err != nil {
		return nil, fmt.Errorf("tp_err_pct: %w", err)
	}

	res.set("setup_s", setup.Seconds(), "s")
	res.set("latency_p50_ms", w.latency(0.50), "ms")
	res.set("latency_p90_ms", w.latency(0.90), "ms")
	res.set("throughput_rps", w.throughput(), "1/s")
	res.set("cpu_ms_per_req", ms(w.cpuPerRequest()), "ms")
	res.set("rss_peak_mb", w.residentMB(), "MB")
	res.set("tp_err_pct", tp, "%")

	fmt.Fprintf(out, "workload %s seed %d: untraced, %d set-ups, window %.2f s\n", name, opts.seed, opts.setups, w.wall.Seconds())
	windowReport(out, w)
	first := w.cycles[:min(digestWindow, len(w.cycles))]
	fmt.Fprintf(out, "cycle digest %s (warm-up and first %d requests)\n", digest(append([][]int64{warmCycles}, first...)...), len(first))
	fmt.Fprintf(out, "kernel peak RSS over the process's life, set-ups included: %.1f MB\n", w.maxRSSMB)
	fmt.Fprintf(out, "error_rate %.6g ratio (%d failed of %d attempted)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	res.report(out)
	return res, nil
}

// tracedRun measures the per-layer metrics: an untraced window half the
// run long gives the basis the spans reconcile against, then the traced
// pass replays a fixed number of the same inputs layer by layer.
func tracedRun(name string, sp spec, opts options, out io.Writer) (*result, error) {
	half := opts.seconds / 2
	wl, err := sp.build(opts.seed, half, opts.tracedN)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	svc, h, _, _, err := setUp(wl)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if err := wl.prepare(h); err != nil {
		return nil, err
	}
	w := runWindow(h, wl, half, sp.slice)
	res, err := checkWindow(wl, h, w)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	start := time.Now()
	if err := wl.traced(t, opts.tracedN); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	// The traced pass must reproduce the service's answers to the
	// requests both ran.
	res.attempted += t.requests
	for i, cycles := range t.perRequest {
		if i < w.requests && w.failed[i] == nil && !reflect.DeepEqual(cycles, w.cycles[i]) {
			res.failed++
			fmt.Fprintf(out, "  traced request %d: cycles %v, service answered %v\n", i, cycles, w.cycles[i])
		}
	}

	basis := w.meanLatency()
	if wl.basis() == "cpu" {
		basis = w.cpuPerRequest()
	}
	t.perLayer(res, basis, wall, w)

	fmt.Fprintf(out, "workload %s seed %d: traced, untraced window %.2f s, traced pass %d requests in %.2f s\n",
		name, opts.seed, w.wall.Seconds(), t.requests, wall.Seconds())
	windowReport(out, w)
	fmt.Fprintf(out, "cycle digest %s (every request of the traced pass)\n", digest(t.perRequest...))
	fmt.Fprintf(out, "reconciled against untraced %s: %.1f us per request\n", wl.basis(), float64(basis.Nanoseconds())/1e3)
	if opts.traceDir != "" {
		path := filepath.Join(opts.traceDir, fmt.Sprintf("%s-seed%d.json", name, opts.seed))
		if err := t.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing Chrome trace: %w", err)
		}
		fmt.Fprintf(out, "chrome trace %s\n", path)
	}
	res.report(out)
	return res, nil
}

// checkWindow runs the after-window output checks and counts the
// outcome.
func checkWindow(wl workload, h http.Handler, w *window) (*result, error) {
	attempted, failed, err := wl.verify(h, w.requests, w.failed)
	if err != nil {
		return nil, fmt.Errorf("checking answers: %w", err)
	}
	res := newResult()
	res.count(w.failed)
	res.attempted += attempted
	res.failed += failed
	return res, nil
}

func windowReport(out io.Writer, w *window) {
	fmt.Fprintf(out, "%d requests in the window: %d slices, %d latency samples", w.requests, len(w.slices), w.samples())
	if w.exhausted {
		fmt.Fprintf(out, " (inputs ran out before the window closed)")
	}
	fmt.Fprintln(out)
	sliceLine(out, w, "slice throughput (1/s)", func(s slice) float64 { return float64(len(s.lat)) / s.wall.Seconds() })
	sliceLine(out, w, "slice latency p50 (ms)", func(s slice) float64 { return ms(quantile(s.lat, 0.5)) })
	sliceLine(out, w, "slice latency p90 (ms)", func(s slice) float64 { return ms(quantile(s.lat, 0.9)) })
	sliceLine(out, w, "slice cpu per request (ms)", func(s slice) float64 { return ms(s.cpu) / float64(len(s.lat)) })
	sliceLine(out, w, "slice resident peak (MB)", func(s slice) float64 { return float64(s.resident) / (1 << 20) })
	reportFailures(out, w.failed)
}

// sliceLine prints one per-slice series of the window.
func sliceLine(out io.Writer, w *window, label string, f func(slice) float64) {
	fmt.Fprintf(out, "%s:", label)
	for _, s := range w.slices {
		fmt.Fprintf(out, " %.4g", f(s))
	}
	fmt.Fprintln(out)
}
