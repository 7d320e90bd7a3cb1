package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"macs"
	"macs/internal/explore"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if m := decode[map[string]string](t, resp); m["status"] != "ok" {
		t.Fatalf("healthz body = %v", m)
	}
}

func TestHTTPAnalyzeRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}, Reals: map[string]float64{"A": 1.5}}}

	resp := postJSON(t, srv.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	r1 := decode[AnalyzeResponse](t, resp)
	if r1.Bounds.TMACS <= 0 || r1.Cycles <= 0 || r1.Cached {
		t.Fatalf("implausible first response: %+v", r1)
	}
	if !strings.Contains(r1.Report, "t_MACS") {
		t.Fatalf("report missing hierarchy: %q", r1.Report)
	}

	r2 := decode[AnalyzeResponse](t, postJSON(t, srv.URL+"/v1/analyze", req))
	if !r2.Cached {
		t.Fatal("second identical request not served from cache")
	}

	// The cache hit is visible on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[map[string]any](t, mresp)
	if metric(snap, "macsd_cache_hits_total", "") < 1 || metric(snap, "macsd_pipeline_runs_total", "") != 1 {
		t.Fatalf("metrics: %v; want >=1 cache hit and exactly 1 pipeline run", snap)
	}
	if n := metric(snap, "macsd_requests_total", "analyze"); n != 2 {
		t.Fatalf("macsd_requests_total{endpoint=analyze} = %v; want 2", n)
	}
}

func TestHTTPBoundAndErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	r := decode[BoundResponse](t, postJSON(t, srv.URL+"/v1/bound", BoundRequest{Source: saxpySrc}))
	if r.Bounds.TMACS <= 0 {
		t.Fatalf("bound response: %+v", r)
	}

	// Malformed body → 400.
	resp, err := http.Post(srv.URL+"/v1/bound", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d; want 400", resp.StatusCode)
	}

	// Source the pipeline rejects → 422.
	resp = postJSON(t, srv.URL+"/v1/bound", BoundRequest{Source: "PROGRAM P\nEND\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("loop-less source status = %d; want 422", resp.StatusCode)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	release := make(chan struct{})
	defer close(release)
	if err := s.pool.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.pool.Stats().InFlight == 1 })
	if err := s.pool.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/v1/analyze", AnalyzeRequest{Source: saxpySrc})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status = %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
}

func TestHTTPLFK(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel run in -short mode")
	}
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	resp, err := http.Get(srv.URL + "/v1/lfk/12")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lfk status = %d", resp.StatusCode)
	}
	r := decode[LFKResponse](t, resp)
	if r.ID != 12 || !r.Validated || r.Bounds.TMACS <= 0 || r.TP <= 0 {
		t.Fatalf("lfk response: %+v", r)
	}
	if r.Diagnosis == "" {
		t.Fatal("lfk response missing diagnosis")
	}

	// Unknown / excluded kernel → 422; junk id → 400.
	resp, err = http.Get(srv.URL + "/v1/lfk/5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("lfk/5 status = %d; want 422", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/lfk/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lfk/abc status = %d; want 400", resp.StatusCode)
	}
}

func TestHTTPCheck(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	resp := postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: saxpySrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	r := decode[CheckResponse](t, resp)
	if !r.OK {
		t.Fatalf("compiled SAXPY does not verify clean: %+v", r.Diagnostics)
	}
	if r.Cached {
		t.Fatal("first check served from cache")
	}
	for _, d := range r.Diagnostics {
		if d.Severity == macs.SevError {
			t.Errorf("unexpected error diagnostic: %+v", d)
		}
	}
	r2 := decode[CheckResponse](t, postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: saxpySrc}))
	if !r2.Cached {
		t.Fatal("second identical check not served from cache")
	}

	// A source the compiler rejects is still a plain 422.
	resp = postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: "PROGRAM P\nDO K = oops(\nEND\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("loop-less source status = %d; want 422", resp.StatusCode)
	}
}

func TestWriteServiceErrorVerify(t *testing.T) {
	// A program rejected by the static checker answers 422 with the full
	// diagnostic list in the body, not just an error string.
	verr := &macs.VerifyError{Diags: []macs.Diagnostic{
		{Severity: macs.SevError, Instr: 3, Message: "use of s1 before definition"},
		{Severity: macs.SevWarning, Instr: 5, Message: "stride warning"},
	}}
	rec := httptest.NewRecorder()
	writeServiceError(rec, fmt.Errorf("analyze: %w", verr))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("verify rejection status = %d; want 422", rec.Code)
	}
	var body struct {
		Error       string            `json:"error"`
		Diagnostics []macs.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Diagnostics) != 2 || body.Diagnostics[0].Message != "use of s1 before definition" {
		t.Fatalf("422 body diagnostics = %+v", body.Diagnostics)
	}
}

func TestHTTPRecoverPanic(t *testing.T) {
	// The outermost middleware turns a handler panic into a 500.
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := recoverPanic(log, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/analyze", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d; want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("500 body = %q", rec.Body.String())
	}
}

// TestWriteJSONUnencodable: a value JSON cannot encode answers 500 with
// the encoder's error, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"cpl": math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Fatalf("status %d, body %q; want 500 with the encode error", rec.Code, rec.Body.String())
	}
}

func TestHTTPPayloadTooLarge(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	// A body over maxBodyBytes must come back as 413, not 400.
	big := `{"source":"` + strings.Repeat("C", maxBodyBytes+1) + `"}`
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d; want 413", resp.StatusCode)
	}
	// A small malformed body is still a plain 400.
	resp2, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d; want 400", resp2.StatusCode)
	}
}

func TestHTTPAnalyzeAttribution(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 2048,
		Prime: Priming{Ints: map[string]int64{"N": 2048}, Reals: map[string]float64{"A": 1.5}}}
	resp := postJSON(t, srv.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	r := decode[AnalyzeResponse](t, resp)
	if len(r.Attribution) == 0 {
		t.Fatal("analyze response has empty attribution breakdown")
	}
	// The lane-summed ledger is conserved: it covers 4 lanes x Cycles.
	var sum int64
	for _, v := range r.Attribution {
		sum += v
	}
	if want := 4 * r.Cycles; sum != want {
		t.Errorf("attribution sum = %d, want 4*cycles = %d", sum, want)
	}
	if r.Attribution["issue"] == 0 {
		t.Error("attribution missing issue cycles")
	}
	// Refresh runs 8 of every 400 cycles: its share of run time on a long
	// memory-streaming kernel sits near that 2% duty cycle.
	share := float64(r.Attribution["refresh"]) / float64(r.Cycles)
	if share < 0.005 || share > 0.04 {
		t.Errorf("refresh share = %.4f of cycles, want ~0.02", share)
	}
	// The aggregate counters on /metrics saw the same run.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[map[string]any](t, mresp)
	if got := metric(m, "macsd_stall_cycles_total", "refresh"); got != float64(r.Attribution["refresh"]) {
		t.Errorf("macsd_stall_cycles_total{cause=refresh} = %v, want %d", got, r.Attribution["refresh"])
	}
	// A cache hit must not double-count the aggregate.
	resp2 := postJSON(t, srv.URL+"/v1/analyze", req)
	r2 := decode[AnalyzeResponse](t, resp2)
	if !r2.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if got := metric(scrape(t, s), "macsd_stall_cycles_total", "refresh"); got != float64(r.Attribution["refresh"]) {
		t.Errorf("cache hit inflated stall cycles[refresh]: %v vs %d", got, r.Attribution["refresh"])
	}
}

// TestHTTPAnalyzeTierQueryParam: old clients' tier names still parse and
// change nothing. A tier of fast or auto — in the body, as ?tier= on
// analyze (overriding the body), or as batch's ?tier= — answers exactly
// what the same request without a tier answers, from the one exact cache
// entry: the whole sequence costs one pipeline run. Any other name is a
// 422 with the message the tiered service gave.
func TestHTTPAnalyzeTierQueryParam(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	h := NewHandler(s)
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}}
	tiered := func(tier string) AnalyzeRequest { r := req; r.Tier = tier; return r }

	if rec := serveBody(h, http.MethodPost, "/v1/analyze", mustJSON(t, req)); rec.Code != http.StatusOK {
		t.Fatalf("untiered status %d: %s", rec.Code, rec.Body.Bytes())
	}
	want := serveBody(h, http.MethodPost, "/v1/analyze", mustJSON(t, req)).Body.Bytes()
	var wantResp AnalyzeResponse
	if err := json.Unmarshal(want, &wantResp); err != nil {
		t.Fatal(err)
	}
	if wantResp.Tier != "exact" || !wantResp.Cached || wantResp.Cycles <= 0 {
		t.Fatalf("untiered repeat: tier %q, cached %v, %d cycles", wantResp.Tier, wantResp.Cached, wantResp.Cycles)
	}

	for _, c := range []struct {
		target string
		body   AnalyzeRequest
	}{
		{"/v1/analyze", tiered("fast")},
		{"/v1/analyze", tiered("auto")},
		{"/v1/analyze", tiered("exact")},
		{"/v1/analyze?tier=fast", req},
		{"/v1/analyze?tier=auto", req},
		{"/v1/analyze?tier=fast", tiered("warp")}, // the query overrides the body
	} {
		rec := serveBody(h, http.MethodPost, c.target, mustJSON(t, c.body))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s tier %q: status %d, body\n%s\nwant\n%s", c.target, c.body.Tier, rec.Code, rec.Body.Bytes(), want)
		}
	}

	batch := mustJSON(t, BatchRequest{Items: []AnalyzeRequest{req, tiered("auto")}})
	rec := serveBody(h, http.MethodPost, "/v1/batch?tier=fast", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("batch returned %d lines, want 2:\n%s", len(lines), rec.Body.Bytes())
	}
	for _, line := range lines {
		var item BatchItemResult
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatal(err)
		}
		if item.Result == nil || !reflect.DeepEqual(*item.Result, wantResp) {
			t.Errorf("batch ?tier=fast item %d: %+v, want %+v", item.Index, item, wantResp)
		}
	}
	if got := pipelineRuns(t, s); got != 1 {
		t.Errorf("pipeline ran %d times, want 1", got)
	}

	const unknown = `macs: unknown tier "warp" (want exact, fast or auto)`
	for _, c := range []struct {
		target string
		body   AnalyzeRequest
	}{
		{"/v1/analyze", tiered("warp")},
		{"/v1/analyze?tier=warp", req},
	} {
		rec := serveBody(h, http.MethodPost, c.target, mustJSON(t, c.body))
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusUnprocessableEntity || e["error"] != unknown {
			t.Errorf("%s tier %q: status %d, body %s; want 422 %q", c.target, c.body.Tier, rec.Code, rec.Body.Bytes(), unknown)
		}
	}
	rec = serveBody(h, http.MethodPost, "/v1/batch?tier=warp", batch)
	var item BatchItemResult
	if err := json.Unmarshal(bytes.SplitN(rec.Body.Bytes(), []byte("\n"), 2)[0], &item); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || item.Error != unknown {
		t.Errorf("batch ?tier=warp: status %d, first line %+v; want an error line %q", rec.Code, item, unknown)
	}
}

// TestPrimingArrayLongerThanDeclaration: an array primed with more
// elements than its declaration holds is refused — analyze and ax answer
// 422 naming the variable and both lengths, explore ends its stream with
// an error event — instead of being written on over the variables placed
// after it. A fitting array still runs.
func TestPrimingArrayLongerThanDeclaration(t *testing.T) {
	const src = "PROGRAM SAXPY\nREAL X(64), Y(64), A\nINTEGER N, K\nDO K = 1, N\n  Y(K) = Y(K) + A*X(K)\nENDDO\nEND\n"
	prime := func(name string, n int) Priming {
		return Priming{Ints: map[string]int64{"N": 64}, Arrays: map[string][]float64{name: make([]float64, n)}}
	}
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	h := NewHandler(s)

	if rec := serveBody(h, http.MethodPost, "/v1/analyze", mustJSON(t, AnalyzeRequest{
		Source: src, Iterations: 64, Prime: prime("X", 64)})); rec.Code != http.StatusOK {
		t.Fatalf("fitting array: status %d: %s", rec.Code, rec.Body.Bytes())
	} else if r := decodeRec[AnalyzeResponse](t, rec); r.Cycles != 263 {
		t.Errorf("fitting array: %d cycles, want 263", r.Cycles)
	}

	for _, c := range []struct {
		name  string
		elems int
	}{
		{"X", 65},
		{"X", 100}, // overwrites Y and A
		{"X", 129},
		{"X", 130}, // overwrites N too: the run reported 20 cycles
		{"Y", 65},
	} {
		want := fmt.Sprintf("inputs: array %q has %d elements but is declared with 64", c.name, c.elems)
		p := prime(c.name, c.elems)
		for _, req := range []struct {
			target string
			body   any
		}{
			{"/v1/analyze", AnalyzeRequest{Source: src, Iterations: 64, Prime: p}},
			{"/v1/ax", AXRequest{Source: src, Prime: p}},
		} {
			rec := serveBody(h, http.MethodPost, req.target, mustJSON(t, req.body))
			if e := decodeRec[map[string]any](t, rec); rec.Code != http.StatusUnprocessableEntity || e["error"] != want {
				t.Errorf("%s %s(%d): status %d, body %s; want 422 %q", req.target, c.name, c.elems, rec.Code, rec.Body.Bytes(), want)
			}
		}

		rec := serveBody(h, http.MethodPost, "/v1/explore", mustJSON(t, ExploreRequest{Source: src, Iterations: 64, Prime: p}))
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var last ExploreEvent
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("explore %s(%d): %v in %s", c.name, c.elems, err, rec.Body.Bytes())
		}
		if last.Type != "error" || !strings.HasSuffix(last.Error, want) {
			t.Errorf("explore %s(%d): last event %+v, want an error ending in %q", c.name, c.elems, last, want)
		}
	}
}

// TestInputMistakesSameWords: one mistake in a program's inputs reads
// the same on every endpoint. On SAXPY, a misspelled int, a misspelled
// real, an array longer than its declaration and an input of the wrong
// kind each answer analyze and ax with 422, and end the batch item and
// the explore stream on an error line, all with the text
// macs.Inputs.Check returns.
func TestInputMistakesSameWords(t *testing.T) {
	const src = "PROGRAM SAXPY\nREAL X(4), Y(4), A\nINTEGER N, K\nDO K = 1, N\n  Y(K) = Y(K) + A*X(K)\nENDDO\nEND\n"
	prog, err := macs.Compile(src, macs.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int64{"N": 4}
	for _, c := range []struct {
		name string
		in   Priming
		want string
	}{
		{"int M", Priming{Ints: map[string]int64{"M": 4}}, `inputs: unknown variable "M"`},
		{"real B", Priming{Ints: n, Reals: map[string]float64{"B": 2.5}}, `inputs: unknown variable "B"`},
		{"X(4) given 5", Priming{Ints: n, Arrays: map[string][]float64{"X": make([]float64, 5)}},
			`inputs: array "X" has 5 elements but is declared with 4`},
		{"INTEGER N as a real", Priming{Reals: map[string]float64{"N": 4}},
			`inputs: variable "N" is declared an INTEGER scalar, not a REAL scalar`},
		{"REAL X(4) as an int", Priming{Ints: map[string]int64{"N": 4, "X": 3}},
			`inputs: variable "X" is declared a REAL array, not an INTEGER scalar`},
		{"REAL X(4) as a real", Priming{Ints: n, Reals: map[string]float64{"X": 3}},
			`inputs: variable "X" is declared a REAL array, not a REAL scalar`},
	} {
		if err := c.in.Check(prog); err == nil || err.Error() != c.want {
			t.Fatalf("%s: Check = %v, want %q", c.name, err, c.want)
		}
		s := newTestService(t, Config{Workers: 2, QueueSize: 8})
		h := NewHandler(s)
		for _, req := range []struct {
			target string
			body   any
		}{
			{"/v1/analyze", AnalyzeRequest{Source: src, Iterations: 4, Prime: c.in}},
			{"/v1/ax", AXRequest{Source: src, Prime: c.in}},
		} {
			rec := serveBody(h, http.MethodPost, req.target, mustJSON(t, req.body))
			if e := decodeRec[map[string]any](t, rec); rec.Code != http.StatusUnprocessableEntity || e["error"] != c.want {
				t.Errorf("%s %s: status %d, body %s; want 422 %q", req.target, c.name, rec.Code, rec.Body.Bytes(), c.want)
			}
		}

		rec := serveBody(h, http.MethodPost, "/v1/batch", mustJSON(t, BatchRequest{Items: []AnalyzeRequest{
			{Source: src, Iterations: 4, Prime: c.in}}}))
		var item BatchItemResult
		if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &item); err != nil {
			t.Fatalf("batch %s: %v in %s", c.name, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK || item.Error != c.want {
			t.Errorf("batch %s: status %d, item %+v; want an error line %q", c.name, rec.Code, item, c.want)
		}

		rec = serveBody(h, http.MethodPost, "/v1/explore", mustJSON(t, ExploreRequest{Source: src, Iterations: 4, Prime: c.in,
			Grid: explore.Grid{Axes: []explore.Axis{{Param: "banks", Values: []float64{16, 32}}}}}))
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var last ExploreEvent
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("explore %s: %v in %s", c.name, err, rec.Body.Bytes())
		}
		if last.Type != "error" || last.Error != c.want {
			t.Errorf("explore %s: last event %+v, want an error %q", c.name, last, c.want)
		}
	}
}

// TestAXRefusesWhatVerifyRefuses: /v1/ax gates its program through the
// static checker as analyze and bound do, so a stream that reads past
// its array answers all three with 422 and the same diagnostics rather
// than a measurement.
func TestAXRefusesWhatVerifyRefuses(t *testing.T) {
	const src = "PROGRAM OOB\nREAL X(4), Y(4)\nINTEGER K\nDO K = 1, 4\n  Y(K) = X(K+100)\nENDDO\nEND\n"
	const want = "vector load spans [800,832) of d_X (32 bytes): out of bounds for 4 elements, stride 8"
	h := NewHandler(newTestService(t, Config{Workers: 2, QueueSize: 8}))
	var first []macs.Diagnostic
	for _, req := range []struct {
		target string
		body   any
	}{
		{"/v1/analyze", AnalyzeRequest{Source: src, Iterations: 4}},
		{"/v1/bound", BoundRequest{Source: src}},
		{"/v1/ax", AXRequest{Source: src}},
	} {
		rec := serveBody(h, http.MethodPost, req.target, mustJSON(t, req.body))
		body := decodeRec[struct {
			Diagnostics []macs.Diagnostic `json:"diagnostics"`
		}](t, rec)
		if rec.Code != http.StatusUnprocessableEntity || !slices.ContainsFunc(body.Diagnostics, func(d macs.Diagnostic) bool {
			return d.Severity == macs.SevError && d.Message == want
		}) {
			t.Fatalf("%s: status %d, body %s; want 422 with %q", req.target, rec.Code, rec.Body.Bytes(), want)
		}
		if first == nil {
			first = body.Diagnostics
		} else if !reflect.DeepEqual(body.Diagnostics, first) {
			t.Errorf("%s diagnostics %+v, analyze's %+v", req.target, body.Diagnostics, first)
		}
	}
}

// decodeRec decodes a recorded JSON response body.
func decodeRec[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("%v in %s", err, rec.Body.Bytes())
	}
	return v
}
