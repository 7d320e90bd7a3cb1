package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"macs/internal/obs"
)

// TestMetricsConcurrentSnapshot storms Observe/ObserveStage/
// ObserveBatchItem from many goroutines while others take snapshots —
// under -race this is the lock-discipline proof for the registry — and
// then checks nothing was lost.
func TestMetricsConcurrentSnapshot(t *testing.T) {
	m := NewMetrics()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.snapshotEndpoints()
				m.snapshotStages()
				m.snapshotBatchItems()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				m.Observe("analyze", time.Duration(i)*time.Microsecond, i%7 == 0)
				m.ObserveStage("simulate", time.Duration(i)*time.Microsecond)
				m.ObserveBatchItem("ok")
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	const want = writers * perWriter
	if got := m.snapshotEndpoints()["analyze"].Count; got != want {
		t.Errorf("endpoint count = %d, want %d", got, want)
	}
	if got := m.snapshotStages()["simulate"].Count; got != want {
		t.Errorf("stage count = %d, want %d", got, want)
	}
	if got := m.snapshotBatchItems()["ok"]; got != want {
		t.Errorf("batch items = %d, want %d", got, want)
	}
	// The endpoint histogram's +Inf bucket must agree with the count.
	lat := m.snapshotEndpoints()["analyze"].Latency
	if inf := lat.Buckets[len(lat.Buckets)-1]; inf.LEMS >= 0 || inf.Count != want {
		t.Errorf("+Inf bucket = %+v, want cumulative %d", inf, want)
	}
}

// TestEndpointHistogramSeesRawHit: endpoint and stage histograms share
// one scale whose first bucket is under a raw cache hit's cost, so a
// 30 µs request does not share a bucket with a 0.9 ms one.
func TestEndpointHistogramSeesRawHit(t *testing.T) {
	m := NewMetrics()
	m.Observe("analyze", 30*time.Microsecond, false)
	m.Observe("analyze", 900*time.Microsecond, false)
	m.ObserveStage("cache-lookup", 30*time.Microsecond)
	for name, lat := range map[string]LatencySnapshot{
		"endpoint": m.snapshotEndpoints()["analyze"].Latency,
		"stage":    m.snapshotStages()["cache-lookup"].Latency,
	} {
		if b := lat.Buckets[0]; b.LEMS != 0.05 || b.Count != 1 {
			t.Errorf("%s first bucket = %+v, want le_ms 0.05 holding the 30 µs observation", name, b)
		}
	}
	if b := m.snapshotEndpoints()["analyze"].Latency.Buckets; len(b) != len(latencyBucketsMS)+1 || b[len(b)-2].LEMS != 5000 {
		t.Errorf("endpoint buckets %+v, want 0.05 ms up to 5000 ms and +Inf", b)
	}
}

// TestRenderPromGolden pins the exposition rendering: HELP/TYPE
// comments, label escaping (round-tripped through the validating
// parser), histogram bucket structure, and bucket monotonicity.
func TestRenderPromGolden(t *testing.T) {
	weird := "an\"aly\\ze\nx" // every escapable byte of the format
	snap := Snapshot{
		UptimeSeconds: 1.5,
		Endpoints: map[string]EndpointSnapshot{
			weird: {Count: 4, Errors: 1, Latency: LatencySnapshot{
				MeanMS: 2, MaxMS: 8,
				Buckets: []BucketCount{{LEMS: 1, Count: 1}, {LEMS: 5, Count: 3}, {LEMS: -1, Count: 4}},
			}},
		},
		Stages: map[string]StageSnapshot{
			"simulate": {Count: 2, Latency: LatencySnapshot{
				MeanMS: 0.5, MaxMS: 0.9,
				Buckets: []BucketCount{{LEMS: 0.25, Count: 0}, {LEMS: 1, Count: 2}, {LEMS: -1, Count: 2}},
			}},
		},
		BatchItems:  map[string]int64{"ok": 3, "error": 1},
		StallCycles: map[string]int64{"issue": 100, "chime": 40},
		SimCycles:   1234,
	}
	text := string(RenderProm(snap))

	fams, err := obs.ParseProm(text)
	if err != nil {
		t.Fatalf("RenderProm output rejected by ParseProm: %v\n%s", err, text)
	}
	byName := map[string]obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	for _, golden := range []string{
		"# HELP macsd_requests_total Requests by endpoint.",
		"# TYPE macsd_requests_total counter",
		"# TYPE macsd_request_duration_seconds histogram",
		`macsd_requests_total{endpoint="an\"aly\\ze\nx"} 4`,
		`macsd_request_duration_seconds_bucket{endpoint="an\"aly\\ze\nx",le="+Inf"} 4`,
		"# TYPE macsd_stage_duration_seconds histogram",
		`macsd_stage_duration_seconds_bucket{stage="simulate",le="0.001"} 2`,
		`macsd_batch_items_total{outcome="ok"} 3`,
		`macsd_stall_cycles_total{cause="issue"} 100`,
		"macsd_sim_cycles_total 1234",
		"macsd_uptime_seconds 1.5",
	} {
		if !strings.Contains(text, golden+"\n") {
			t.Errorf("exposition missing line %q\n%s", golden, text)
		}
	}

	// The weird endpoint label must round-trip through the parser's
	// unescaping back to the original string.
	found := false
	for _, s := range byName["macsd_requests_total"].Samples {
		if s.Labels["endpoint"] == weird {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped endpoint label did not round-trip: %+v", byName["macsd_requests_total"].Samples)
	}

	// Histogram buckets must be monotone in le with _count == +Inf (the
	// parser already enforces this; assert it independently here so a
	// parser regression cannot mask a writer regression).
	hist := byName["macsd_request_duration_seconds"]
	var lastCum float64 = -1
	var infCum, count float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if s.Value < lastCum {
				t.Errorf("bucket le=%s count %v < previous %v", s.Labels["le"], s.Value, lastCum)
			}
			lastCum = s.Value
			if s.Labels["le"] == "+Inf" {
				infCum = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if infCum != count || count != 4 {
		t.Errorf("+Inf bucket %v != count %v (want 4)", infCum, count)
	}
}

// TestRenderPromEmptySnapshot: a zero snapshot (fresh daemon, nothing
// observed) must still render a valid document with the always-on
// families.
func TestRenderPromEmptySnapshot(t *testing.T) {
	fams, err := obs.ParseProm(string(RenderProm(Snapshot{})))
	if err != nil {
		t.Fatalf("empty snapshot rejected: %v", err)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{
		"macsd_uptime_seconds", "macsd_cache_hits_total", "macsd_queue_workers",
		"macsd_pipeline_runs_total", "macsd_sim_cycles_total", "macsd_explore_sweeps_total",
	} {
		if !names[want] {
			t.Errorf("empty snapshot missing family %s", want)
		}
	}
}

// TestHTTPMetricsPromUnderLoad scrapes /metrics?format=prom concurrently
// with live analyze traffic; every scrape must be a valid exposition
// document (and under -race, a clean snapshot of the counters).
func TestHTTPMetricsPromUnderLoad(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 16})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				req := AnalyzeRequest{Source: saxpySrc, Iterations: int64(16 + w*4 + i),
					Prime: Priming{Ints: map[string]int64{"N": 16}}}
				resp := postJSON(t, srv.URL+"/v1/analyze", req)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(srv.URL + "/metrics?format=prom")
			if err != nil {
				scrapeErr <- err
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
				scrapeErr <- fmt.Errorf("content type = %q", ct)
				resp.Body.Close()
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scrapeErr <- err
				return
			}
			if _, err := obs.ParseProm(string(b)); err != nil {
				scrapeErr <- fmt.Errorf("scrape %d invalid: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// After the storm the endpoint counters surface in the exposition.
	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseProm(string(b))
	if err != nil {
		t.Fatal(err)
	}
	var reqTotal float64
	for _, f := range fams {
		if f.Name != "macsd_requests_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["endpoint"] == "analyze" {
				reqTotal = s.Value
			}
		}
	}
	if reqTotal != 16 {
		t.Errorf("macsd_requests_total{endpoint=analyze} = %v, want 16", reqTotal)
	}
}

// chromeExport mirrors the trace_event document shape for decoding.
type chromeExport struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestHTTPAnalyzeTraceE2E is the issue's acceptance path: one
// ?trace=1 request yields a trace ID whose Chrome export contains
// nested spans for every executed pipeline stage plus simulator lane
// events merged from the VM trace.
func TestHTTPAnalyzeTraceE2E(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}}

	resp := postJSON(t, srv.URL+"/v1/analyze?trace=1", req)
	id := resp.Header.Get("X-Macs-Trace")
	if id == "" {
		t.Fatal("no X-Macs-Trace header")
	}
	r1 := decode[AnalyzeResponse](t, resp)
	if r1.Trace == nil {
		t.Fatal("?trace=1 response has no trace block")
	}
	if r1.Trace.ID != id {
		t.Fatalf("trace block id %q != header %q", r1.Trace.ID, id)
	}
	spans := map[string]bool{}
	for _, sp := range r1.Trace.Spans {
		spans[sp.Name] = true
	}
	for _, stage := range []string{"analyze", "cache-lookup", "compile", "verify", "bound",
		"load", "prime", "simulate"} {
		if !spans[stage] {
			t.Errorf("trace missing span %q (have %v)", stage, spans)
		}
	}
	if len(r1.Trace.Lanes) == 0 {
		t.Error("trace carries no simulator lane events")
	}

	// An untraced request must not carry a trace block (and a cached
	// replay must not leak the first request's trace).
	r2 := decode[AnalyzeResponse](t, postJSON(t, srv.URL+"/v1/analyze", req))
	if r2.Trace != nil {
		t.Errorf("untraced request carries trace block %+v", r2.Trace)
	}

	// The stored trace replays as Chrome trace_event JSON.
	cresp, err := http.Get(srv.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("trace export status = %d", cresp.StatusCode)
	}
	if ct := cresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("trace export content type = %q", ct)
	}
	var doc chromeExport
	if err := json.NewDecoder(cresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	var stageEvents, laneEvents, nested int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch e.PID {
		case 0:
			stageEvents++
			if _, ok := e.Args["parent"]; ok {
				nested++
			}
		case 1:
			laneEvents++
		}
	}
	if stageEvents < 8 || nested == 0 {
		t.Errorf("chrome export: %d stage events (%d nested), want the full pipeline", stageEvents, nested)
	}
	if laneEvents == 0 {
		t.Error("chrome export has no simulator lane events")
	}

	// Stage durations folded into /metrics per-stage histograms.
	msnap := decode[Snapshot](t, mustGet(t, srv.URL+"/metrics"))
	if msnap.Stages["simulate"].Count < 1 {
		t.Errorf("stage metrics missing simulate: %+v", msnap.Stages)
	}
	if msnap.SimCycles <= 0 {
		t.Errorf("sim_cycles = %d, want > 0", msnap.SimCycles)
	}

	// Unknown trace IDs 404.
	nf, err := http.Get(srv.URL + "/v1/trace/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nf.Body)
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", nf.StatusCode)
	}
}

// TestPlainAnalyzeDefersLanes: a cold analyze without ?trace=1 attaches
// its simulator lanes to the retained trace but never builds them; GET
// /v1/trace/{id} builds them on demand and exports them.
func TestPlainAnalyzeDefersLanes(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}}
	resp := postJSON(t, srv.URL+"/v1/analyze", req)
	id := resp.Header.Get("X-Macs-Trace")
	if r := decode[AnalyzeResponse](t, resp); r.Cached || r.Trace != nil {
		t.Fatalf("plain analyze: cached=%v trace=%v, want a fresh run without a trace block", r.Cached, r.Trace)
	}
	// The handler retains the trace after writing the response, so the
	// client may read the body first: wait for the retention.
	var tr *obs.Trace
	for deadline := time.Now().Add(5 * time.Second); tr == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("trace %q not retained", id)
		}
		s.traceMu.Lock()
		tr = s.traces[id]
		s.traceMu.Unlock()
	}
	if !tr.LanesPending() {
		t.Fatal("serving a plain analyze built its lane events")
	}

	cresp := mustGet(t, srv.URL+"/v1/trace/"+id)
	var doc chromeExport
	if err := json.NewDecoder(cresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	lanes := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.PID == 1 {
			lanes++
		}
	}
	if lanes == 0 {
		t.Error("trace export of a plain analyze has no simulator lane events")
	}
	if tr.LanesPending() {
		t.Error("trace export left the lanes unbuilt")
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
