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

// TestMetricsConcurrentSnapshot storms the service's request, stage and
// batch-item families from many goroutines while others render both
// /metrics formats — under -race this is the lock-discipline proof for
// the registry — and then checks nothing was lost.
func TestMetricsConcurrentSnapshot(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	m := s.metrics
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
				if _, err := obs.ParseProm(string(m.reg.Prom())); err != nil {
					t.Error(err)
					return
				}
				if _, err := json.Marshal(m.reg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(i) * time.Microsecond
				m.observeRequest("analyze", d, i%8 == 0, map[string]time.Duration{"simulate": d})
				m.batchItems.Add("ok", 1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	const want = writers * perWriter
	doc := scrape(t, s)
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"requests", metric(doc, "macsd_requests_total", "analyze"), want},
		{"errors", metric(doc, "macsd_request_errors_total", "analyze"), want / 8},
		{"request histogram", histCount(doc, "macsd_request_duration_seconds", "analyze"), want},
		{"stage histogram", histCount(doc, "macsd_stage_duration_seconds", "simulate"), want},
		{"batch items", metric(doc, "macsd_batch_items_total", "ok"), want},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// The request histogram's +Inf bucket must agree with the count.
	if !strings.Contains(string(m.reg.Prom()),
		fmt.Sprintf("macsd_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} %d\n", want)) {
		t.Errorf("+Inf bucket of the request histogram is not the count %d", want)
	}
}

// TestEndpointHistogramSeesRawHit: request and stage histograms share
// one scale whose first bucket is under a raw cache hit's cost, so a
// 30 µs request does not share a bucket with a 0.9 ms one.
func TestEndpointHistogramSeesRawHit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	s.metrics.observeRequest("analyze", 30*time.Microsecond, false,
		map[string]time.Duration{"cache-lookup": 30 * time.Microsecond})
	s.metrics.observeRequest("analyze", 900*time.Microsecond, false, nil)
	doc := scrape(t, s)
	for name, b := range map[string][]any{
		"request": histBuckets(doc, "macsd_request_duration_seconds", "analyze"),
		"stage":   histBuckets(doc, "macsd_stage_duration_seconds", "cache-lookup"),
	} {
		if len(b) == 0 {
			t.Fatalf("%s histogram not rendered: %v", name, doc)
		}
		if first := b[0].(map[string]any); first["le"] != 5e-05 || first["count"] != 1.0 {
			t.Errorf("%s first bucket = %v, want le 5e-05 (50 µs) holding the 30 µs observation", name, first)
		}
	}
	b := histBuckets(doc, "macsd_request_duration_seconds", "analyze")
	if len(b) != len(latencyBuckets) || b[len(b)-1].(map[string]any)["le"] != 5.0 {
		t.Errorf("request buckets %v, want 50 µs up to 5 s (+Inf is the count)", b)
	}
}

// TestRenderPromGolden pins the service's exposition: HELP/TYPE
// comments, label escaping (round-tripped through the validating
// parser), histogram bucket structure, and bucket monotonicity.
func TestRenderPromGolden(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	m := s.metrics
	weird := "an\"aly\\ze\nx" // every escapable byte of the format
	for i, ms := range []float64{0.5, 2, 4, 8} {
		m.observeRequest(weird, time.Duration(ms*float64(time.Millisecond)), i == 0, nil)
	}
	m.observeRequest("analyze", time.Millisecond,
		false, map[string]time.Duration{"simulate": 300 * time.Microsecond})
	m.observeRequest("analyze", time.Millisecond,
		false, map[string]time.Duration{"simulate": 900 * time.Microsecond})
	m.batchItems.Add("ok", 3)
	m.batchItems.Add("error", 1)
	m.stallCycles.Add("issue", 100)
	m.stallCycles.Add("chime", 40)
	m.simCycles.Add("", 1234)
	text := string(m.reg.Prom())

	fams, err := obs.ParseProm(text)
	if err != nil {
		t.Fatalf("exposition rejected by ParseProm: %v\n%s", err, text)
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
		`macsd_request_errors_total{endpoint="an\"aly\\ze\nx"} 1`,
		`macsd_request_errors_total{endpoint="analyze"} 0`,
		`macsd_request_duration_seconds_bucket{endpoint="an\"aly\\ze\nx",le="0.001"} 1`,
		`macsd_request_duration_seconds_bucket{endpoint="an\"aly\\ze\nx",le="0.005"} 3`,
		`macsd_request_duration_seconds_bucket{endpoint="an\"aly\\ze\nx",le="+Inf"} 4`,
		`macsd_request_duration_seconds_sum{endpoint="an\"aly\\ze\nx"} 0.0145`,
		"# TYPE macsd_stage_duration_seconds histogram",
		`macsd_stage_duration_seconds_bucket{stage="simulate",le="0.00025"} 0`,
		`macsd_stage_duration_seconds_bucket{stage="simulate",le="0.001"} 2`,
		`macsd_batch_items_total{outcome="ok"} 3`,
		`macsd_stall_cycles_total{cause="issue"} 100`,
		"macsd_sim_cycles_total 1234",
	} {
		if !strings.Contains(text, golden+"\n") {
			t.Errorf("exposition missing line %q\n%s", golden, text)
		}
	}
	if !strings.HasPrefix(text, "# HELP macsd_uptime_seconds Seconds since the service started.\n") {
		t.Errorf("exposition does not open with the uptime family:\n%s", text)
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
		if s.Labels["endpoint"] != weird {
			continue
		}
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

// TestRenderPromEmptySnapshot: a fresh service (nothing observed) must
// still render a valid document with the always-on families, and its
// JSON document must carry the same families.
func TestRenderPromEmptySnapshot(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	fams, err := obs.ParseProm(string(s.metrics.reg.Prom()))
	if err != nil {
		t.Fatalf("empty registry rejected: %v", err)
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
			t.Errorf("empty registry missing family %s", want)
		}
	}
	doc := scrape(t, s)
	if len(doc) != len(names) {
		t.Errorf("JSON document has %d families, exposition %d", len(doc), len(names))
	}
	for name := range doc {
		if !names[name] {
			t.Errorf("JSON family %s not in the exposition", name)
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
	msnap := decode[map[string]any](t, mustGet(t, srv.URL+"/metrics"))
	if histCount(msnap, "macsd_stage_duration_seconds", "simulate") < 1 {
		t.Errorf("stage metrics missing simulate: %v", msnap["macsd_stage_duration_seconds"])
	}
	if metric(msnap, "macsd_sim_cycles_total", "") <= 0 {
		t.Errorf("macsd_sim_cycles_total = %v, want > 0", msnap["macsd_sim_cycles_total"])
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
