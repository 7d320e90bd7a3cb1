// Command macsload is a load harness for macsd. It drives the
// /v1/analyze endpoint (or /v1/batch with -batch) with the case-study
// Livermore kernels (real sources, real priming data), first one cold
// pass over the distinct kernels, then a hot phase with a fixed request
// budget, and reports attempted/completed/error counts, req/s, latency
// percentiles and the server's cache statistics — a direct measurement
// of how much the content-addressed cache buys.
//
// The hot phase issues exactly -n requests: a 429 from the server's
// backpressure gate retries the same request after a short sleep (it is
// load the server asked to defer, not load to drop), and transport or
// server errors are counted and reported separately instead of silently
// shrinking the run.
//
// With -slo-p50 / -slo-p99 set, macsload becomes a gate: it exits 1
// when the measured percentile exceeds its threshold or when the run is
// incomplete (any request errored), which is what CI runs against the
// LFK workload.
//
// Usage:
//
//	macsload [-addr http://localhost:8723] [-n 200] [-c 8] [-kernels 4]
//	         [-batch B]
//	         [-slo-p50 5ms] [-slo-p99 50ms]
//	         [-hist] [-prom-out FILE]
//
// -hist prints the full hot-phase latency histogram (cumulative counts
// per bucket with a bar chart) instead of just the percentiles.
// -prom-out writes the client-side results in the Prometheus text
// exposition format to FILE — drop it in a node_exporter textfile
// collector directory to scrape a load run's outcome.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macs"
	"macs/internal/obs"
	"macs/internal/service"
)

func main() {
	addr := flag.String("addr", "http://localhost:8723", "macsd base URL")
	n := flag.Int("n", 200, "hot-phase request budget (each is issued exactly once)")
	c := flag.Int("c", 8, "concurrent clients")
	nk := flag.Int("kernels", 4, "distinct kernels in the workload (max 10)")
	batch := flag.Int("batch", 0, "batch mode: items per /v1/batch request (0 = single /v1/analyze requests)")
	sloP50 := flag.Duration("slo-p50", 0, "fail (exit 1) if hot-phase p50 exceeds this (0 disables)")
	sloP99 := flag.Duration("slo-p99", 0, "fail (exit 1) if hot-phase p99 exceeds this (0 disables)")
	hist := flag.Bool("hist", false, "print the full hot-phase latency histogram")
	promOut := flag.String("prom-out", "", "write client-side results as a Prometheus textfile to this path")
	flag.Parse()

	if err := run(*addr, *n, *c, *nk, *batch, *sloP50, *sloP99, *hist, *promOut); err != nil {
		fmt.Fprintln(os.Stderr, "macsload:", err)
		os.Exit(1)
	}
}

// counters aggregates the hot phase. attempted is the fixed budget that
// was actually issued; completed are requests that got a 200 (after any
// 429 retries); errored is everything else. attempted == completed +
// errored at the end of a run.
type counters struct {
	attempted atomic.Int64
	completed atomic.Int64
	errored   atomic.Int64
	retries   atomic.Int64 // 429s honored with a retry of the same request

	mu   sync.Mutex
	lats []time.Duration
}

func (ct *counters) record(d time.Duration) {
	ct.mu.Lock()
	ct.lats = append(ct.lats, d)
	ct.mu.Unlock()
}

func run(addr string, n, c, nk, batch int, sloP50, sloP99 time.Duration, hist bool, promOut string) error {
	kernels := macs.Kernels()
	if nk < 1 {
		nk = 1
	}
	if nk > len(kernels) {
		nk = len(kernels)
	}
	reqs := make([]service.AnalyzeRequest, nk)
	bodies := make([][]byte, nk)
	for i, k := range kernels[:nk] {
		reqs[i] = service.AnalyzeRequest{
			Source:     k.Source,
			Iterations: int64(k.Elements),
			Prime:      k.Inputs,
		}
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		bodies[i] = body
	}

	client := &http.Client{Timeout: 60 * time.Second}

	// Cold pass: every distinct kernel once, sequentially. 429s retry —
	// the cold pass must warm all nk kernels or the hot phase measures
	// the wrong thing.
	coldStart := time.Now()
	for i, body := range bodies {
		for {
			status, err := analyze(client, addr, body)
			if err != nil {
				return fmt.Errorf("cold pass, kernel %d: %w", kernels[i].ID, err)
			}
			if status == http.StatusTooManyRequests {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			break
		}
	}
	coldDur := time.Since(coldStart)
	fmt.Printf("cold: %d kernels in %v (%.1f req/s)\n",
		nk, coldDur.Round(time.Millisecond), float64(nk)/coldDur.Seconds())

	// Hot phase: exactly n requests over the same kernels from c clients.
	var (
		ct  counters
		idx atomic.Int64
	)
	hotStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if i >= int64(n) {
					return
				}
				ct.attempted.Add(1)
				if batch > 0 {
					hotBatch(client, addr, reqs, int(i), batch, &ct)
				} else {
					hotOne(client, addr, bodies[i%int64(len(bodies))], &ct)
				}
			}
		}()
	}
	wg.Wait()
	hotDur := time.Since(hotStart)

	ct.mu.Lock()
	lats := ct.lats
	ct.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	unit := "requests"
	if batch > 0 {
		unit = fmt.Sprintf("batches of %d", batch)
	}
	fmt.Printf("hot:  %d/%d %s completed, %d errors, %d clients in %v (%.1f req/s, %d retried after 429)\n",
		ct.completed.Load(), ct.attempted.Load(), unit, ct.errored.Load(), c,
		hotDur.Round(time.Millisecond),
		float64(ct.completed.Load())/hotDur.Seconds(), ct.retries.Load())
	p50, p99 := pct(lats, 50), pct(lats, 99)
	if len(lats) > 0 {
		fmt.Printf("      p50 %v  p90 %v  p99 %v  max %v\n",
			p50.Round(time.Microsecond), pct(lats, 90).Round(time.Microsecond),
			p99.Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	if hist && len(lats) > 0 {
		printHist(os.Stdout, lats)
	}
	if promOut != "" {
		if err := writePromText(promOut, &ct, lats, hotDur); err != nil {
			return fmt.Errorf("prom-out: %w", err)
		}
		fmt.Printf("wrote Prometheus textfile: %s\n", promOut)
	}

	// Server-side view: cache effectiveness from /metrics, whose JSON
	// document is keyed by family name.
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap struct {
		Hits        float64 `json:"macsd_cache_hits_total"`
		Misses      float64 `json:"macsd_cache_misses_total"`
		Evictions   float64 `json:"macsd_cache_evictions_total"`
		Runs        float64 `json:"macsd_pipeline_runs_total"`
		Deduped     float64 `json:"macsd_dedup_shared_total"`
		Persistent  float64 `json:"macsd_persistent_cache_enabled"`
		DiskEntries float64 `json:"macsd_persistent_cache_entries"`
		DiskHits    float64 `json:"macsd_persistent_cache_hits_total"`
		DiskWrites  float64 `json:"macsd_persistent_cache_writes_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	hitRate := 0.0
	if lookups := snap.Hits + snap.Misses; lookups > 0 {
		hitRate = snap.Hits / lookups
	}
	fmt.Printf("server: cache %.0f/%.0f hit (%.1f%%), %.0f evictions, %.0f pipeline runs, %.0f deduped\n",
		snap.Hits, snap.Hits+snap.Misses, 100*hitRate, snap.Evictions, snap.Runs, snap.Deduped)
	if snap.Persistent == 1 {
		fmt.Printf("        persistent cache: %.0f entries, %.0f hits, %.0f writes\n",
			snap.DiskEntries, snap.DiskHits, snap.DiskWrites)
	}

	// SLO gate.
	var breaches []string
	if errs := ct.errored.Load(); errs > 0 && (sloP50 > 0 || sloP99 > 0) {
		breaches = append(breaches, fmt.Sprintf("incomplete run: %d of %d requests errored", errs, ct.attempted.Load()))
	}
	if sloP50 > 0 && p50 > sloP50 {
		breaches = append(breaches, fmt.Sprintf("p50 %v exceeds SLO %v", p50.Round(time.Microsecond), sloP50))
	}
	if sloP99 > 0 && p99 > sloP99 {
		breaches = append(breaches, fmt.Sprintf("p99 %v exceeds SLO %v", p99.Round(time.Microsecond), sloP99))
	}
	if len(breaches) > 0 {
		for _, b := range breaches {
			fmt.Fprintln(os.Stderr, "macsload: SLO:", b)
		}
		return fmt.Errorf("%d SLO breach(es)", len(breaches))
	}
	return nil
}

// hotOne issues one /v1/analyze request, retrying the same request
// after a 429 so the budget is spent, never dropped.
func hotOne(client *http.Client, addr string, body []byte, ct *counters) {
	for {
		t0 := time.Now()
		status, err := analyze(client, addr, body)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsload:", err)
			ct.errored.Add(1)
			return
		}
		if status == http.StatusTooManyRequests {
			ct.retries.Add(1)
			time.Sleep(50 * time.Millisecond) // honor backpressure, then retry
			continue
		}
		ct.record(time.Since(t0))
		ct.completed.Add(1)
		return
	}
}

// hotBatch issues one /v1/batch request of size items, reading the
// NDJSON stream to completion. Latency covers the whole stream (the
// last kernel's completion); a per-item error inside the stream counts
// the batch as errored.
func hotBatch(client *http.Client, addr string, reqs []service.AnalyzeRequest, seq, size int, ct *counters) {
	items := make([]service.AnalyzeRequest, size)
	for j := 0; j < size; j++ {
		items[j] = reqs[(seq*size+j)%len(reqs)]
	}
	body, err := json.Marshal(service.BatchRequest{Items: items})
	if err != nil {
		fmt.Fprintln(os.Stderr, "macsload:", err)
		ct.errored.Add(1)
		return
	}
	for {
		t0 := time.Now()
		lines, status, err := postBatch(client, addr, body, size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsload:", err)
			ct.errored.Add(1)
			return
		}
		if status == http.StatusTooManyRequests {
			ct.retries.Add(1)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if lines != size {
			fmt.Fprintf(os.Stderr, "macsload: batch returned %d clean results, want %d\n", lines, size)
			ct.errored.Add(1)
			return
		}
		ct.record(time.Since(t0))
		ct.completed.Add(1)
		return
	}
}

// postBatch POSTs one batch and counts the clean NDJSON result lines as
// they arrive. Error lines (per-item failures) are reported but not
// counted as clean.
func postBatch(client *http.Client, addr string, body []byte, size int) (int, int, error) {
	resp, err := client.Post(addr+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return 0, resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return 0, resp.StatusCode, fmt.Errorf("batch status %s", resp.Status)
	}
	clean := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var item service.BatchItemResult
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return clean, resp.StatusCode, fmt.Errorf("bad batch line: %w", err)
		}
		if item.Error != "" {
			fmt.Fprintf(os.Stderr, "macsload: batch item %d: %s\n", item.Index, item.Error)
			continue
		}
		clean++
	}
	if err := sc.Err(); err != nil {
		return clean, resp.StatusCode, err
	}
	return clean, resp.StatusCode, nil
}

// analyze POSTs one request and returns the HTTP status. Non-2xx and
// non-429 statuses are errors.
func analyze(client *http.Client, addr string, body []byte) (int, error) {
	resp, err := client.Post(addr+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return resp.StatusCode, fmt.Errorf("status %s", resp.Status)
	}
	return resp.StatusCode, nil
}

// histBucketsMS bound the client-side latency histogram, log-spaced from
// 100µs to 5s.
var histBucketsMS = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// bucketize folds sorted latencies into cumulative counts per histogram
// bucket (one extra for +Inf).
func bucketize(sorted []time.Duration) []int64 {
	cum := make([]int64, len(histBucketsMS)+1)
	for i, le := range histBucketsMS {
		ms := time.Duration(le * float64(time.Millisecond))
		cum[i] = int64(sort.Search(len(sorted), func(j int) bool { return sorted[j] > ms }))
	}
	cum[len(histBucketsMS)] = int64(len(sorted))
	return cum
}

// printHist renders the full latency distribution: one line per bucket
// with its cumulative count, share of the total and a bar.
func printHist(w io.Writer, sorted []time.Duration) {
	cum := bucketize(sorted)
	total := int64(len(sorted))
	fmt.Fprintln(w, "      latency histogram (cumulative):")
	prev := int64(0)
	for i := range cum {
		label := "+Inf"
		if i < len(histBucketsMS) {
			label = fmt.Sprintf("%gms", histBucketsMS[i])
		}
		inBucket := cum[i] - prev
		prev = cum[i]
		if cum[i] == 0 {
			continue // nothing at or below this bound yet
		}
		bar := strings.Repeat("#", int(40*inBucket/total))
		fmt.Fprintf(w, "      <= %8s %6d (%5.1f%%) %s\n", label, cum[i], 100*float64(cum[i])/float64(total), bar)
		if cum[i] == total && i >= len(histBucketsMS) {
			break
		}
	}
}

// writePromText writes the client-side run results in the Prometheus
// text exposition format (textfile-collector shaped), self-validated
// with the same parser the CI scrape gate uses.
func writePromText(path string, ct *counters, sorted []time.Duration, hotDur time.Duration) error {
	r := obs.NewRegistry()
	reqs := r.Counter("macsload_requests_total", "Hot-phase requests by outcome.", "outcome")
	retries := r.Counter("macsload_retries_total", "Requests retried after a 429.", "")
	r.GaugeFunc("macsload_hot_duration_seconds", "Wall-clock duration of the hot phase.",
		func() float64 { return hotDur.Seconds() })
	buckets := make([]float64, len(histBucketsMS))
	for i, ms := range histBucketsMS {
		buckets[i] = ms / 1e3
	}
	lat := r.Histogram("macsload_request_duration_seconds", "Hot-phase request latency.", "", buckets)

	reqs.Add("completed", float64(ct.completed.Load()))
	reqs.Add("errored", float64(ct.errored.Load()))
	retries.Add("", float64(ct.retries.Load()))
	for _, d := range sorted {
		lat.Observe("", d.Seconds())
	}
	text := r.Prom()
	if _, err := obs.ParseProm(string(text)); err != nil {
		return fmt.Errorf("generated exposition invalid: %w", err)
	}
	return os.WriteFile(path, text, 0o644)
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := p * len(sorted) / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
