package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"macs"
	"macs/internal/explore"
	"macs/internal/lfk"
)

// TestLFKAgreesWithAnalyze: /v1/lfk/{id} runs the kernel through the
// pipeline /v1/analyze runs any source through, so the two report the
// same bounds and the same t_p for every kernel, on the default machine
// and on machines with shorter vector registers.
func TestLFKAgreesWithAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty kernel runs in -short mode")
	}
	ctx := context.Background()
	for _, vlmax := range []int{32, 64, 128} {
		cfg := DefaultConfig()
		cfg.Workers, cfg.QueueSize = 2, 8
		cfg.VM.VLMax = vlmax
		s := newTestService(t, cfg)
		for _, k := range lfk.All() {
			l, err := s.LFK(ctx, k.ID)
			if err != nil {
				t.Fatalf("vlmax %d lfk%d: %v", vlmax, k.ID, err)
			}
			a, err := s.Analyze(ctx, AnalyzeRequest{Source: k.Source, Iterations: int64(k.Elements), Prime: k.Inputs})
			if err != nil {
				t.Fatalf("vlmax %d lfk%d analyze: %v", vlmax, k.ID, err)
			}
			if l.Bounds != a.Bounds || l.Bounds.VL != vlmax {
				t.Errorf("vlmax %d lfk%d: lfk bounds %+v, analyze %+v", vlmax, k.ID, l.Bounds, a.Bounds)
			}
			if l.TP != a.MeasuredCPL || !l.Validated {
				t.Errorf("vlmax %d lfk%d: lfk t_p %v (validated %v), analyze %v", vlmax, k.ID, l.TP, l.Validated, a.MeasuredCPL)
			}
		}
	}
}

// TestLFKTraceHasStages: a fresh /v1/lfk request records the pipeline's
// stages on its trace, as /v1/analyze does, and exports them.
func TestLFKTraceHasStages(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	resp := mustGet(t, srv.URL+"/v1/lfk/6")
	id := resp.Header.Get("X-Macs-Trace")
	r := decode[LFKResponse](t, resp)
	if resp.StatusCode != http.StatusOK || !r.Validated {
		t.Fatalf("lfk/6: status %d, %+v", resp.StatusCode, r)
	}
	view, ok := s.TraceByID(id)
	if !ok {
		t.Fatalf("trace %q not retained", id)
	}
	spans := map[string]bool{}
	for _, sp := range view.Spans {
		spans[sp.Name] = true
	}
	var doc chromeExport
	if err := json.NewDecoder(mustGet(t, srv.URL+"/v1/trace/"+id).Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			exported[e.Name] = true
		}
	}
	for _, stage := range []string{"compile", "verify", "bound", "load", "prime", "simulate"} {
		if !spans[stage] || !exported[stage] {
			t.Errorf("lfk trace lacks stage %q (spans %v)", stage, spans)
		}
	}
}

// TestLongVLMaxRefused: a machine whose VLMax the vector registers
// cannot hold is refused in vm.Machine.Check's words before anything
// compiles, whether it is the service's own machine or a point of an
// explore grid, and an explore refusal comes before the stream starts.
func TestLongVLMaxRefused(t *testing.T) {
	want := func(vlmax int) string { return macs.Machine{VLMax: vlmax}.Check().Error() }

	cfg := DefaultConfig()
	cfg.Workers, cfg.QueueSize = 1, 4
	cfg.VM.VLMax = 256
	long := newTestService(t, cfg)
	ctx := context.Background()
	k, err := lfk.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := long.LFK(ctx, 1); err == nil || err.Error() != want(256) {
		t.Errorf("lfk on a VLMax-256 service: %v, want %q", err, want(256))
	}
	if _, err := long.Analyze(ctx, AnalyzeRequest{Source: k.Source, Iterations: int64(k.Elements), Prime: k.Inputs}); err == nil || err.Error() != want(256) {
		t.Errorf("analyze on a VLMax-256 service: %v, want %q", err, want(256))
	}
	if err := long.Explore(ctx, exploreReq(explore.Grid{}), func(ExploreEvent) { t.Error("explore emitted on a VLMax-256 service") }); err == nil || err.Error() != want(256) {
		t.Errorf("explore on a VLMax-256 service: %v, want %q", err, want(256))
	}
	if n := pipelineRuns(t, long); n != 0 {
		t.Errorf("refused requests ran the pipeline %d times", n)
	}

	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	base := macs.DefaultMachine()
	base.VLMax = 256
	for _, tc := range []struct {
		vlmax int
		grid  explore.Grid
	}{
		{256, explore.Grid{Axes: []explore.Axis{{Param: "vlmax", Values: []float64{128, 256}}}}},
		{0, explore.Grid{Axes: []explore.Axis{{Param: "vlmax", Values: []float64{0}}}}},
		{256, explore.Grid{Base: base}},
		{0, explore.Grid{Base: macs.Machine{Banks: 16}}},
	} {
		resp := postJSON(t, srv.URL+"/v1/explore", exploreReq(tc.grid))
		body := decode[map[string]any](t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity || body["error"] != want(tc.vlmax) {
			t.Errorf("explore over %s: status %d, body %v; want 422 %q",
				fmt.Sprint(tc.grid), resp.StatusCode, body, want(tc.vlmax))
		}
	}
}
