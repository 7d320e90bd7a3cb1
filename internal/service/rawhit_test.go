package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"

	"macs/internal/explore"
	"macs/internal/lfk"
)

// serveBody sends one request through h in process.
func serveBody(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawStep is one request of TestRawHitSameAnswersAndCounters: how to
// send it over HTTP, and how to ask the service for the same answer
// directly, which always takes the keyed path.
type rawStep struct {
	name   string
	target string
	body   any
	direct func(*Service, context.Context) (any, error)
}

func rawSteps() []rawStep {
	prime := Priming{Ints: map[string]int64{"N": 32}, Reals: map[string]float64{"A": 1.5}}
	an := AnalyzeRequest{Source: saxpySrc, Iterations: 32, Prime: prime}
	tiered := func(tier string) AnalyzeRequest { r := an; r.Tier = tier; return r }
	analyze := func(req AnalyzeRequest) func(*Service, context.Context) (any, error) {
		return func(s *Service, ctx context.Context) (any, error) { return s.Analyze(ctx, req) }
	}
	// The three tiered spellings are old clients' names for the exact
	// request: each is its own raw alias of the one exact entry.
	return []rawStep{
		{"exact", "/v1/analyze", an, analyze(an)},
		{"auto-query", "/v1/analyze?tier=auto", an, analyze(tiered("auto"))},
		{"fast-query", "/v1/analyze?tier=fast", an, analyze(tiered("fast"))},
		{"auto-body", "/v1/analyze", tiered("auto"), analyze(tiered("auto"))},
		{"bound", "/v1/bound", BoundRequest{Source: saxpySrc}, func(s *Service, ctx context.Context) (any, error) {
			return s.Bound(ctx, BoundRequest{Source: saxpySrc})
		}},
		{"check", "/v1/check", CheckRequest{Source: saxpySrc}, func(s *Service, ctx context.Context) (any, error) {
			return s.Check(ctx, CheckRequest{Source: saxpySrc})
		}},
		{"ax", "/v1/ax", AXRequest{Source: saxpySrc, Prime: prime}, func(s *Service, ctx context.Context) (any, error) {
			return s.AX(ctx, AXRequest{Source: saxpySrc, Prime: prime})
		}},
		{"error", "/v1/bound", BoundRequest{Source: "PROGRAM P\nEND\n"}, func(s *Service, ctx context.Context) (any, error) {
			return s.Bound(ctx, BoundRequest{Source: "PROGRAM P\nEND\n"})
		}},
	}
}

// TestRawHitSameAnswersAndCounters runs one request sequence through the
// HTTP handler, where repeats take the raw path, and through the service
// methods, which always decode, key and encode. Every answer must be
// byte-identical to the method's (what the handler wrote before raw
// aliases existed), and the counters must agree.
func TestRawHitSameAnswersAndCounters(t *testing.T) {
	const reps = 4
	cfg := Config{Workers: 2, QueueSize: 16}
	httpSvc, directSvc := newTestService(t, cfg), newTestService(t, cfg)
	h := NewHandler(httpSvc)
	ctx := context.Background()

	steps := rawSteps()
	for rep := 0; rep < reps; rep++ {
		for _, st := range steps {
			rec := serveBody(h, http.MethodPost, st.target, mustJSON(t, st.body))
			resp, err := st.direct(directSvc, ctx)
			if err != nil {
				if rec.Code != http.StatusUnprocessableEntity {
					t.Errorf("%s rep %d: status %d, want 422 for %v", st.name, rep, rec.Code, err)
				}
				continue
			}
			want, err := encodeJSON(resp)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s rep %d: status %d, body\n%s\nwant\n%s", st.name, rep, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}

	// Every successful step registered one alias: four on the analyze
	// entry (maxAliasesPerEntry), one each on bound, check and ax.
	httpSvc.cache.mu.Lock()
	aliases := len(httpSvc.cache.aliases)
	httpSvc.cache.mu.Unlock()
	if aliases != 7 {
		t.Errorf("%d raw aliases registered, want 7", aliases)
	}

	// ?trace=1 answers are never aliased: each repeat embeds its own trace.
	for rep := 0; rep < 3; rep++ {
		rec := serveBody(h, http.MethodPost, "/v1/analyze?trace=1", mustJSON(t, steps[0].body))
		var r AnalyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Trace == nil || r.Trace.ID != rec.Header().Get("X-Macs-Trace") || !r.Cached {
			t.Fatalf("trace=1 rep %d: trace %+v, cached %v", rep, r.Trace, r.Cached)
		}
		if _, err := steps[0].direct(directSvc, ctx); err != nil {
			t.Fatal(err)
		}
	}

	httpSvc.Close()
	directSvc.Close()
	got, want := httpSvc.Metrics(), directSvc.Metrics()
	if got.Cache.Hits != want.Cache.Hits || got.Cache.Misses != want.Cache.Misses {
		t.Errorf("cache hits/misses %d/%d, slow path %d/%d", got.Cache.Hits, got.Cache.Misses, want.Cache.Hits, want.Cache.Misses)
	}
	if got.PipelineRuns != want.PipelineRuns || got.DedupShared != want.DedupShared {
		t.Errorf("pipeline runs %d dedup %d, slow path %d %d", got.PipelineRuns, got.DedupShared, want.PipelineRuns, want.DedupShared)
	}
	// One run each for analyze (all four spellings), bound, check and ax;
	// the uncached error runs every rep.
	if want.PipelineRuns != 4+reps {
		t.Errorf("slow path ran the pipeline %d times, want %d", want.PipelineRuns, 4+reps)
	}
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Errorf("endpoints %v, slow path %v", got.Endpoints, want.Endpoints)
	}
	for name, w := range want.Endpoints {
		g := got.Endpoints[name]
		if g.Count != w.Count || g.Errors != w.Errors {
			t.Errorf("endpoint %s: count %d errors %d, slow path %d %d", name, g.Count, g.Errors, w.Count, w.Errors)
		}
	}

	// The accept gate holds on the raw path: a closed service answers 429.
	if rec := serveBody(h, http.MethodPost, "/v1/bound", mustJSON(t, steps[4].body)); rec.Code != http.StatusTooManyRequests {
		t.Errorf("closed service answered an aliased request with %d, want 429", rec.Code)
	}
}

// TestRawHitConcurrent sends one body from several goroutines at once,
// so slow hits register the alias while raw hits read it (run under
// -race). One pipeline run answers all of them, and every cached answer
// is the same bytes.
func TestRawHitConcurrent(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 64})
	h := NewHandler(s)
	body := mustJSON(t, BoundRequest{Source: saxpySrc})
	const goroutines, each = 8, 25
	answers := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := serveBody(h, http.MethodPost, "/v1/bound", body)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
				answers[g] = append(answers[g], rec.Body.Bytes())
			}
		}(g)
	}
	wg.Wait()
	var cached []byte
	for _, as := range answers {
		for _, a := range as {
			if !bytes.Contains(a, []byte(`"cached": true`)) {
				continue
			}
			if cached == nil {
				cached = a
			} else if !bytes.Equal(a, cached) {
				t.Fatalf("cached answers differ:\n%s\n%s", a, cached)
			}
		}
	}
	if cached == nil || s.PipelineRuns() != 1 {
		t.Fatalf("%d pipeline runs, cached answer %q; want one run", s.PipelineRuns(), cached)
	}
	if st := s.Metrics().Cache; st.Hits+st.Misses < goroutines*each {
		t.Fatalf("cache counted %d lookups for %d requests", st.Hits+st.Misses, goroutines*each)
	}
}

// TestRawHitTrace: a raw hit carries its trace ID, and the retained trace
// is a root span with one cache-lookup child.
func TestRawHitTrace(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	h := NewHandler(s)
	body := mustJSON(t, BoundRequest{Source: saxpySrc})
	var rec *httptest.ResponseRecorder
	for i := 0; i < 3; i++ {
		rec = serveBody(h, http.MethodPost, "/v1/bound", body)
	}
	id := rec.Header().Get("X-Macs-Trace")
	v, ok := s.TraceByID(id)
	if !ok {
		t.Fatalf("raw hit trace %q not retained", id)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("raw hit spans = %+v, want root and cache-lookup", v.Spans)
	}
	if root, lookup := v.Spans[0], v.Spans[1]; root.Name != "bound" || root.Parent != -1 ||
		lookup.Name != "cache-lookup" || lookup.Parent != 0 {
		t.Fatalf("raw hit spans = %+v", v.Spans)
	}
}

// TestRawHitEvictedWithEntry: aliases belong to their entry. In a
// one-entry cache, a second kernel evicts the first together with its
// alias, so the first kernel's next request runs the pipeline again.
func TestRawHitEvictedWithEntry(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4, CacheSize: 1})
	h := NewHandler(s)
	a := mustJSON(t, BoundRequest{Source: saxpySrc})
	b := mustJSON(t, BoundRequest{Source: saxpyVariant(4096)})
	for i := 0; i < 3; i++ {
		serveBody(h, http.MethodPost, "/v1/bound", a)
	}
	if s.PipelineRuns() != 1 || len(s.cache.aliases) != 1 {
		t.Fatalf("after three requests: %d runs, %d aliases; want 1, 1", s.PipelineRuns(), len(s.cache.aliases))
	}
	serveBody(h, http.MethodPost, "/v1/bound", b)
	if len(s.cache.aliases) != 0 {
		t.Fatalf("%d aliases survived their entry's eviction", len(s.cache.aliases))
	}
	rec := serveBody(h, http.MethodPost, "/v1/bound", a)
	r := decode[BoundResponse](t, rec.Result())
	if r.Cached || s.PipelineRuns() != 3 {
		t.Fatalf("evicted kernel: cached %v after %d runs; want a fresh run (3)", r.Cached, s.PipelineRuns())
	}
}

// TestBodySpacingOneContentKey: bodies that differ only in spacing, key
// order and map order reach one content key, so the second costs no
// pipeline run and answers cached.
func TestBodySpacingOneContentKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	h := NewHandler(s)
	src := mustJSON(t, saxpySrc)
	compact := `{"source":` + string(src) + `,"iterations":32,"prime":{"ints":{"N":32},"reals":{"A":1.5},"arrays":{"X":[1,2],"Y":[-0.25]}}}`
	spaced := "{\n  \"prime\" : { \"arrays\" : { \"Y\" : [ -0.25 ], \"X\" : [ 1.0, 2e0 ] },\n \"reals\" : { \"A\" : 1.5 }, \"ints\" : { \"N\" : 32 } },\n" +
		"  \"iterations\" : 32 ,\t\"source\" : " + string(src) + "\n}\n"
	var rs [2]AnalyzeResponse
	for i, body := range []string{compact, spaced} {
		rec := serveBody(h, http.MethodPost, "/v1/analyze", []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		rs[i] = decode[AnalyzeResponse](t, rec.Result())
	}
	r1, r2 := rs[0], rs[1]
	if r1.Cached || !r2.Cached || s.PipelineRuns() != 1 {
		t.Fatalf("cached %v then %v after %d runs; want one run, second cached", r1.Cached, r2.Cached, s.PipelineRuns())
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles %d vs %d", r1.Cycles, r2.Cycles)
	}
}

// TestRawHitDecodesNothing: the heap bytes one raw hit allocates do not
// grow with the body. A hit that decoded or keyed its body would
// allocate at least its prime arrays again.
func TestRawHitDecodesNothing(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	h := NewHandler(s)
	src := saxpyVariant(8192)
	perHit := func(bodyBytes int) (uint64, int) {
		var xs []float64
		var body []byte
		for len(body) < bodyBytes {
			for i := 0; i < 16; i++ {
				xs = append(xs, 1+float64(len(xs))/3)
			}
			body = mustJSON(t, AnalyzeRequest{Source: src, Iterations: 64,
				Prime: Priming{Ints: map[string]int64{"N": 64}, Arrays: map[string][]float64{"X": xs}}})
		}
		// A miss, then the hit that registers the alias.
		for i := 0; i < 2; i++ {
			if rec := serveBody(h, http.MethodPost, "/v1/analyze", body); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		const n = 41
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		// The median of single-hit deltas ignores the odd hit that finds
		// the buffer pool emptied (a GC, or -race dropping a Put).
		deltas := make([]uint64, n)
		var before, after runtime.MemStats
		for i := range reqs {
			runtime.ReadMemStats(&before)
			h.ServeHTTP(recs[i], reqs[i])
			runtime.ReadMemStats(&after)
			deltas[i] = after.TotalAlloc - before.TotalAlloc
			if recs[i].Code != http.StatusOK {
				t.Fatalf("raw hit status %d", recs[i].Code)
			}
		}
		sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
		return deltas[n/2], len(body)
	}
	small, smallLen := perHit(1 << 10)
	large, largeLen := perHit(50 << 10)
	t.Logf("raw hit allocates %d B for a %d B body, %d B for a %d B body", small, smallLen, large, largeLen)
	if large > small+4<<10 {
		t.Fatalf("raw hit allocation grows with the body: %d B at %d B, %d B at %d B", small, smallLen, large, largeLen)
	}
}

// TestHTTPTrailingDataRejected: every endpoint that decodes a body takes
// exactly one JSON value. Data after it is a 400, whitespace is not.
func TestHTTPTrailingDataRejected(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	h := NewHandler(s)
	an := mustJSON(t, AnalyzeRequest{Source: saxpySrc, Iterations: 16, Prime: Priming{Ints: map[string]int64{"N": 16}}})
	bound := mustJSON(t, BoundRequest{Source: saxpySrc})
	endpoints := []struct {
		path string
		body []byte
	}{
		{"/v1/analyze", an},
		{"/v1/batch", mustJSON(t, BatchRequest{Items: []AnalyzeRequest{{Source: saxpySrc}}})},
		{"/v1/explore", mustJSON(t, exploreReq(explore.Grid{}))},
		{"/v1/bound", bound},
		{"/v1/check", mustJSON(t, CheckRequest{Source: saxpySrc})},
		{"/v1/ax", mustJSON(t, AXRequest{Source: saxpySrc, Prime: Priming{Ints: map[string]int64{"N": 16}}})},
	}
	for _, ep := range endpoints {
		for _, tc := range []struct {
			name, tail string
			want       int
		}{
			{"garbage", " garbage", http.StatusBadRequest},
			{"second value", `{"source":"nope"}`, http.StatusBadRequest},
			{"stray brace", " }", http.StatusBadRequest},
			{"whitespace", " \n\t\r\n", http.StatusOK},
		} {
			// Each case is sent twice: the second answer could come from a
			// raw alias of the first.
			for i := 0; i < 2; i++ {
				rec := serveBody(h, http.MethodPost, ep.path, append(bytes.Clone(ep.body), tc.tail...))
				if rec.Code != tc.want {
					t.Errorf("%s + %s (send %d): status %d, want %d: %.200s", ep.path, tc.name, i, rec.Code, tc.want, rec.Body.Bytes())
				}
			}
		}
	}
}

// FuzzRequestBody posts each input three times to one handler. Nothing
// may answer 5xx, the status may not change between sends, a 200 must be
// cached by the second send with the third byte-equal to it, and an input
// that is not exactly one JSON value must answer 400.
func FuzzRequestBody(f *testing.F) {
	for _, k := range lfk.All() {
		f.Add(false, mustJSON(f, CheckRequest{Source: k.Source}))
		f.Add(true, mustJSON(f, BoundRequest{Source: k.Source}))
	}
	src := string(mustJSON(f, saxpySrc))
	for _, tail := range []string{"", " garbage", `{"source":"nope"}`, " }", "\n\t ", "]"} {
		f.Add(true, []byte(`{"source":`+src+`}`+tail))
	}
	for _, body := range []string{"", "{", "null", "[]", `{"source":1}`, `{"sauce":""}`, `{"source":""}`} {
		f.Add(false, []byte(body))
	}
	s := New(Config{Workers: 2, QueueSize: 16})
	f.Cleanup(s.Close)
	h := NewHandler(s)
	f.Fuzz(func(t *testing.T, bound bool, body []byte) {
		path := "/v1/check"
		if bound {
			path = "/v1/bound"
		}
		var status [3]int
		var answers [3][]byte
		for i := range status {
			rec := serveBody(h, http.MethodPost, path, body)
			status[i], answers[i] = rec.Code, rec.Body.Bytes()
			if rec.Code >= 500 {
				t.Fatalf("send %d: status %d: %s", i, rec.Code, answers[i])
			}
		}
		if status[1] != status[0] || status[2] != status[0] {
			t.Fatalf("statuses %v change between identical sends", status)
		}
		if !json.Valid(body) && status[0] != http.StatusBadRequest {
			t.Fatalf("not one JSON value, status %d: %q", status[0], body)
		}
		if status[0] != http.StatusOK {
			return
		}
		if !bytes.Equal(answers[1], answers[2]) {
			t.Fatalf("second and third answers differ:\n%s\n%s", answers[1], answers[2])
		}
		var r struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(answers[2], &r); err != nil || !r.Cached {
			t.Fatalf("third answer not cached (%v): %s", err, answers[2])
		}
	})
}
