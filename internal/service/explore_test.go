package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"macs/internal/explore"
)

func exploreReq(grid explore.Grid) ExploreRequest {
	return ExploreRequest{
		Name:       "saxpy",
		Source:     saxpySrc,
		Iterations: 16,
		Prime:      Priming{Ints: map[string]int64{"N": 16}},
		Grid:       grid,
		TopFrac:    0.25,
	}
}

func TestServiceExplore(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	grid := explore.Grid{Axes: []explore.Axis{
		{Param: "banks", Values: []float64{8, 16, 32, 64}},
		{Param: "vlmax", Values: []float64{64, 128}},
	}}

	var points []ExploreEvent
	var done *ExploreResponse
	err := s.Explore(context.Background(), exploreReq(grid), func(ev ExploreEvent) {
		switch ev.Type {
		case "point":
			points = append(points, ev)
		case "done":
			done = ev.Result
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("no done event")
	}
	if done.Swept != 8 || done.Simulated != 2 || done.Pruned != 6 {
		t.Fatalf("sweep economics = %d/%d/%d", done.Swept, done.Simulated, done.Pruned)
	}
	if len(points) != done.Simulated || len(done.Ranked) != done.Simulated {
		t.Fatalf("streamed %d points, ranked %d, want %d", len(points), len(done.Ranked), done.Simulated)
	}
	if done.Cached {
		t.Fatal("fresh sweep marked cached")
	}
	if done.Ranked[0].Rank != 1 || done.Ranked[0].Stats == nil {
		t.Fatalf("winner = %+v", done.Ranked[0])
	}
	m := scrape(t, s)
	if metric(m, "macsd_explore_sweeps_total", "") != 1 || metric(m, "macsd_explore_points_swept_total", "") != 8 ||
		metric(m, "macsd_explore_points_pruned_total", "") != 6 || metric(m, "macsd_explore_points_simulated_total", "") != 2 {
		t.Fatalf("explore metrics = %v", m)
	}

	// A repeated sweep replays from the cache: same events, Cached
	// summary, counters unchanged.
	var points2 int
	var done2 *ExploreResponse
	err = s.Explore(context.Background(), exploreReq(grid), func(ev ExploreEvent) {
		switch ev.Type {
		case "point":
			points2++
		case "done":
			done2 = ev.Result
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done2 == nil || !done2.Cached {
		t.Fatalf("cached replay summary = %+v", done2)
	}
	if points2 != done.Simulated {
		t.Fatalf("cached replay streamed %d points, want %d", points2, done.Simulated)
	}
	if done2.Ranked[0].Cycles != done.Ranked[0].Cycles {
		t.Fatalf("cached winner diverged: %d vs %d", done2.Ranked[0].Cycles, done.Ranked[0].Cycles)
	}
	if got := metric(scrape(t, s), "macsd_explore_sweeps_total", ""); got != 1 {
		t.Fatalf("cached replay ran a fresh sweep: %v", got)
	}
}

func TestServiceExploreValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	emit := func(ExploreEvent) { t.Fatal("emit on invalid request") }

	req := exploreReq(explore.Grid{Axes: []explore.Axis{{Param: "warp", Values: []float64{1}}}})
	if err := s.Explore(context.Background(), req, emit); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	// 8^5 = 32768 points exceeds the bound.
	big := explore.Grid{}
	for _, p := range []string{"banks", "bank-cycle", "vlmax", "refresh-period", "refresh-len"} {
		big.Axes = append(big.Axes, explore.Axis{Param: p, Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}})
	}
	if err := s.Explore(context.Background(), exploreReq(big), emit); err == nil {
		t.Fatal("oversized grid accepted")
	}

	req = exploreReq(explore.Grid{})
	req.Source = ""
	if err := s.Explore(context.Background(), req, emit); err == nil {
		t.Fatal("empty source accepted")
	}

	req = exploreReq(explore.Grid{})
	req.TopFrac = 1.5
	if err := s.Explore(context.Background(), req, emit); err == nil {
		t.Fatal("top_frac > 1 accepted")
	}
}

func TestHTTPExplore(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	grid := explore.Grid{Axes: []explore.Axis{
		{Param: "banks", Values: []float64{16, 32}},
		{Param: "refresh-stalls", Values: []float64{0, 1}},
	}}

	resp := postJSON(t, srv.URL+"/v1/explore", exploreReq(grid))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var pointLines int
	var done *ExploreResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var ev ExploreEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point":
			if done != nil {
				t.Fatal("point event after done")
			}
			pointLines++
		case "done":
			done = ev.Result
		case "error":
			t.Fatalf("error event: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if done.Swept != 4 || pointLines != done.Simulated {
		t.Fatalf("swept %d, %d point lines, %d simulated", done.Swept, pointLines, done.Simulated)
	}

	// An invalid grid answers a JSON error before the stream starts.
	bad := postJSON(t, srv.URL+"/v1/explore", exploreReq(explore.Grid{
		Axes: []explore.Axis{{Param: "warp", Values: []float64{1}}}}))
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad grid status = %d", bad.StatusCode)
	}
	e := decode[map[string]string](t, bad)
	if !strings.Contains(e["error"], "unknown parameter") {
		t.Fatalf("bad grid error = %q", e["error"])
	}
}

// TestStreamsFlushEachLine: the NDJSON endpoints flush after every line
// through the whole handler stack, so a client sees each result as it
// completes rather than when the response buffer fills.
func TestStreamsFlushEachLine(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	h := NewHandler(s)
	for target, body := range map[string]any{
		"/v1/batch":   BatchRequest{Items: []AnalyzeRequest{{Source: saxpySrc, Iterations: 16}}},
		"/v1/explore": exploreReq(explore.Grid{}),
	} {
		if rec := serveBody(h, http.MethodPost, target, mustJSON(t, body)); rec.Code != http.StatusOK || !rec.Flushed {
			t.Errorf("%s: status %d, flushed %v; want a flushed 200 stream", target, rec.Code, rec.Flushed)
		}
	}
}

func TestPromExploreFamilies(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Explore(context.Background(),
		exploreReq(explore.Grid{Axes: []explore.Axis{{Param: "banks", Values: []float64{16, 32}}}}),
		func(ExploreEvent) {}); err != nil {
		t.Fatal(err)
	}
	text := string(s.metrics.reg.Prom())
	for _, family := range []string{
		"macsd_explore_sweeps_total 1",
		"macsd_explore_points_swept_total 2",
		"macsd_explore_points_pruned_total 1",
		"macsd_explore_points_simulated_total 1",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition missing %q:\n%s", family, text)
		}
	}
}

// TestExploreTraceHasLookup: /v1/explore reads its key through the
// lookup every other endpoint uses, so the retained trace of a fresh
// sweep and of its cached replay both carry a cache-lookup span.
func TestExploreTraceHasLookup(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	h := NewHandler(s)
	body := mustJSON(t, exploreReq(explore.Grid{Axes: []explore.Axis{{Param: "banks", Values: []float64{16, 32}}}}))
	for _, pass := range []string{"fresh", "cached"} {
		rec := serveBody(h, http.MethodPost, "/v1/explore", body)
		v, ok := s.TraceByID(rec.Header().Get("X-Macs-Trace"))
		if !ok {
			t.Fatalf("%s sweep: trace not retained", pass)
		}
		spans := map[string]bool{}
		for _, sp := range v.Spans {
			spans[sp.Name] = true
		}
		for _, want := range []string{"explore", "decode", "cache-lookup"} {
			if !spans[want] {
				t.Errorf("%s sweep: trace has no %q span (have %v)", pass, want, spans)
			}
		}
	}
}
