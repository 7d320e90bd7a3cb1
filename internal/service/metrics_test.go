package service

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"macs/internal/explore"
	"macs/internal/obs"
	"macs/internal/vm"
)

// scrape renders s's GET /metrics JSON document.
func scrape(t *testing.T, s *Service) map[string]any {
	t.Helper()
	b, err := json.Marshal(s.metrics.reg)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// metric reads one counter or gauge series of a /metrics JSON document:
// the series of label value lv in a labeled family, the family's value
// when lv is "". A family or series not rendered reads 0.
func metric(doc map[string]any, family, lv string) float64 {
	v := doc[family]
	if byLabel, ok := v.(map[string]any); ok {
		v = byLabel[lv]
	}
	f, _ := v.(float64)
	return f
}

// histBuckets reads the cumulative finite buckets of one histogram
// series of a /metrics JSON document, each an object with le and count;
// nil when the series is not rendered.
func histBuckets(doc map[string]any, family, lv string) []any {
	byLabel, _ := doc[family].(map[string]any)
	h, _ := byLabel[lv].(map[string]any)
	b, _ := h["buckets"].([]any)
	return b
}

// histCount reads the observation count of one histogram series of a
// /metrics JSON document; 0 when the series is not rendered.
func histCount(doc map[string]any, family, lv string) float64 {
	byLabel, _ := doc[family].(map[string]any)
	h, _ := byLabel[lv].(map[string]any)
	n, _ := h["count"].(float64)
	return n
}

// pipelineRuns reads macsd_pipeline_runs_total.
func pipelineRuns(t *testing.T, s *Service) int64 {
	t.Helper()
	return int64(metric(scrape(t, s), "macsd_pipeline_runs_total", ""))
}

// scrapeProm reads h's GET /metrics?format=prom, checks it parses, and
// returns its families and its sample values keyed by series as written
// (`name{label="value"}`).
func scrapeProm(t *testing.T, h http.Handler) ([]obs.PromFamily, map[string]float64) {
	t.Helper()
	text := serveBody(h, http.MethodGet, "/metrics?format=prom", nil).Body.String()
	fams, err := obs.ParseProm(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if series, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if values[series], err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fams, values
}

// metricsSequence sends a fixed request sequence through h that reaches
// every /metrics family of a service with a persistent cache and the
// runtime sampler on: each endpoint answered (cold, keyed hit, raw hit,
// a batch with a cached, a fresh and a failing item, a sweep), then six
// requests each endpoint refuses.
func metricsSequence(t *testing.T, h http.Handler) {
	t.Helper()
	prime := Priming{Ints: map[string]int64{"N": 32}}
	an := AnalyzeRequest{Source: saxpySrc, Iterations: 32, Prime: prime}
	an16 := AnalyzeRequest{Source: saxpySrc, Iterations: 16, Prime: Priming{Ints: map[string]int64{"N": 16}}}
	bad := AnalyzeRequest{Source: "PROGRAM P\nEND\n"}
	sweep := exploreReq(explore.Grid{Axes: []explore.Axis{{Param: "banks", Values: []float64{16, 32}}}})
	wide := sweep
	wide.TopFrac = 2
	for _, st := range []struct {
		method, target string
		body           any // nil: no body; a string is sent as is
		want           int
	}{
		{http.MethodPost, "/v1/analyze", an, http.StatusOK},
		{http.MethodPost, "/v1/analyze", an, http.StatusOK},
		{http.MethodPost, "/v1/analyze", an, http.StatusOK},
		{http.MethodPost, "/v1/bound", BoundRequest{Source: saxpySrc}, http.StatusOK},
		{http.MethodPost, "/v1/check", CheckRequest{Source: saxpySrc}, http.StatusOK},
		{http.MethodPost, "/v1/ax", AXRequest{Source: saxpySrc, Prime: prime}, http.StatusOK},
		{http.MethodGet, "/v1/lfk/1", nil, http.StatusOK},
		{http.MethodPost, "/v1/batch", BatchRequest{Items: []AnalyzeRequest{an, an16, bad}}, http.StatusOK},
		{http.MethodPost, "/v1/explore", sweep, http.StatusOK},
		{http.MethodPost, "/v1/analyze", "{", http.StatusBadRequest},
		{http.MethodPost, "/v1/bound", `{"source": 1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/explore", wide, http.StatusUnprocessableEntity},
		{http.MethodPost, "/v1/batch", BatchRequest{}, http.StatusUnprocessableEntity},
		{http.MethodGet, "/v1/lfk/abc", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/lfk/5", nil, http.StatusUnprocessableEntity},
	} {
		var body []byte
		switch b := st.body.(type) {
		case nil:
		case string:
			body = []byte(b)
		default:
			body = mustJSON(t, b)
		}
		if rec := serveBody(h, st.method, st.target, body); rec.Code != st.want {
			t.Fatalf("%s %s: status %d, want %d: %s", st.method, st.target, rec.Code, st.want, rec.Body.Bytes())
		}
	}
}

// TestMetricFamiliesInventory pins the /metrics family inventory after
// metricsSequence — names in exposition order, TYPE, label names and
// HELP — to testdata/metric_families.txt, written from the exposition
// the registry replaced. The JSON document carries the same families.
func TestMetricFamiliesInventory(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8, CacheDir: t.TempDir(), RuntimeSample: time.Hour})
	h := NewHandler(s)
	metricsSequence(t, h)
	fams, _ := scrapeProm(t, h)
	var got []string
	for _, f := range fams {
		seen := map[string]bool{}
		for _, smp := range f.Samples {
			for name := range smp.Labels {
				seen[name] = true
			}
		}
		labels := strings.Join(obs.SortedLabelKeys(seen), ",")
		if labels == "" {
			labels = "-"
		}
		got = append(got, strings.Join([]string{f.Name, f.Type, labels, f.Help}, "\t"))
	}
	golden, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("family inventory changed:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	doc := scrape(t, s)
	if len(doc) != len(fams) {
		t.Errorf("JSON document has %d families, exposition %d", len(doc), len(fams))
	}
	for _, f := range fams {
		if _, ok := doc[f.Name]; !ok {
			t.Errorf("JSON document lacks family %s", f.Name)
		}
	}
}

// TestRequestsCountedOnce: each /v1 request counts once, under its own
// endpoint, when its handler returns. Requests an endpoint refuses
// (malformed body, out-of-range parameters, unknown kernel) count as
// failed requests, a batch's items do not count as analyze requests, and
// the stage histogram holds only spans nested under a request's root
// span: no series named after an endpoint's root, and a /v1/bound
// request's pipeline bound stage is not merged with its root.
func TestRequestsCountedOnce(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	h := NewHandler(s)
	if rec := serveBody(h, http.MethodPost, "/v1/bound", mustJSON(t, BoundRequest{Source: saxpySrc})); rec.Code != http.StatusOK {
		t.Fatalf("bound: status %d", rec.Code)
	}
	_, v := scrapeProm(t, h)
	stage, req := v[`macsd_stage_duration_seconds_sum{stage="bound"}`], v[`macsd_request_duration_seconds_sum{endpoint="bound"}`]
	if v[`macsd_stage_duration_seconds_count{stage="bound"}`] != 1 || stage <= 0 || stage >= req {
		t.Errorf("one bound request: bound stage %vs, request %vs; want one stage inside the request", stage, req)
	}

	metricsSequence(t, h)
	_, v = scrapeProm(t, h)
	for ep, want := range map[string][2]float64{
		"analyze": {4, 1}, "ax": {1, 0}, "batch": {2, 1}, "bound": {3, 1},
		"check": {1, 0}, "explore": {2, 1}, "lfk": {3, 2},
	} {
		n := v[`macsd_requests_total{endpoint="`+ep+`"}`]
		errs := v[`macsd_request_errors_total{endpoint="`+ep+`"}`]
		timed := v[`macsd_request_duration_seconds_count{endpoint="`+ep+`"}`]
		if n != want[0] || errs != want[1] || timed != want[0] {
			t.Errorf("%s: %v requests, %v errors, %v timed; want %v, %v, %v", ep, n, errs, timed, want[0], want[1], want[0])
		}
		if _, ok := v[`macsd_stage_duration_seconds_count{stage="`+ep+`"}`]; ok && ep != "bound" {
			t.Errorf("stage histogram holds the %s root span", ep)
		}
	}
	// The first bound request, the cold analyze, the batch's fresh item
	// and the fresh /v1/lfk run (the facade's pipeline, stages and all)
	// ran the bound stage; the sequence's bound request was a cache hit.
	if n := v[`macsd_stage_duration_seconds_count{stage="bound"}`]; n != 4 {
		t.Errorf("bound stage observed %v times, want 4", n)
	}
}

// TestSimCyclesCoverAttributedRuns: every fresh run adds its cycles to
// macsd_sim_cycles_total and its per-lane attribution to
// macsd_stall_cycles_total, so after any request sequence the stall
// causes (issue included) sum to exactly four lanes times the simulated
// cycles. /v1/lfk once added only its attribution.
func TestSimCyclesCoverAttributedRuns(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	metricsSequence(t, NewHandler(s))
	doc := scrape(t, s)
	cycles := metric(doc, "macsd_sim_cycles_total", "")
	byCause, _ := doc["macsd_stall_cycles_total"].(map[string]any)
	var causes float64
	for _, v := range byCause {
		f, _ := v.(float64)
		causes += f
	}
	if cycles == 0 || causes != vm.NumLanes*cycles {
		t.Errorf("stall causes sum to %v, want %d lanes x %v simulated cycles", causes, vm.NumLanes, cycles)
	}
}
