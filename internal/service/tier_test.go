package service

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"macs"
)

// Old clients may still name a tier. Every analysis simulates, so these
// tests pin that each name they may send gets the exact answer, from the
// exact cache entry, with nothing left running behind it.

// saxpyReq is the request the tier tests send with and without a tier.
var saxpyReq = AnalyzeRequest{Source: saxpySrc, Iterations: 64, Prime: Priming{Ints: map[string]int64{"N": 64}}}

// untiered answers saxpyReq without a tier and returns the answer a
// repeat of it gets (cached).
func untiered(t *testing.T, s *Service) AnalyzeResponse {
	t.Helper()
	want, err := s.Analyze(context.Background(), saxpyReq)
	if err != nil {
		t.Fatal(err)
	}
	if want.Tier != "exact" || want.Cached || want.Stats == nil || want.MeasuredCPL <= 0 {
		t.Fatalf("untiered request: tier %q, cached %v, stats %v, measured CPL %g",
			want.Tier, want.Cached, want.Stats, want.MeasuredCPL)
	}
	want.Cached = true
	return want
}

// TestAnalyzeFastTier: tier=fast answers the simulated response — the
// measured CPL and full statistics, not a prediction — from the exact
// cache entry, so the pipeline runs once.
func TestAnalyzeFastTier(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	want := untiered(t, s)
	req := saxpyReq
	req.Tier = "fast"
	for i := 0; i < 2; i++ {
		got, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tier=fast answered %+v, want %+v", got, want)
		}
	}
	if runs := pipelineRuns(t, s); runs != 1 {
		t.Errorf("pipeline ran %d times, want 1", runs)
	}
}

// TestAnalyzeAutoTier: tier=auto answers the exact response on its first
// sight and starts nothing behind it — no second simulation to verify a
// prediction — so a follow-up untiered request is a cache hit and the
// pipeline has run once.
func TestAnalyzeAutoTier(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := saxpyReq
	req.Tier = "auto"
	first, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != "exact" || first.Cached || first.Stats == nil {
		t.Fatalf("tier=auto: tier %q, cached %v, stats %v", first.Tier, first.Cached, first.Stats)
	}
	if runs := pipelineRuns(t, s); runs != 1 {
		t.Fatalf("pipeline ran %d times after one auto request, want 1", runs)
	}
	exact, err := s.Analyze(context.Background(), saxpyReq)
	if err != nil {
		t.Fatal(err)
	}
	first.Cached = true
	if !reflect.DeepEqual(exact, first) {
		t.Fatalf("untiered follow-up %+v, want the auto answer %+v", exact, first)
	}
	if runs := pipelineRuns(t, s); runs != 1 {
		t.Errorf("pipeline ran %d times, want 1", runs)
	}
}

// TestAnalyzeTierValidationAndDefault: a request without a tier is
// simulated (the service has no configurable default tier), "exact"
// answers the same, and any other name is refused with the tiered
// service's message — over HTTP a 422, counted as a failed analyze
// request, while the direct calls count nothing.
func TestAnalyzeTierValidationAndDefault(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	ctx := context.Background()
	want := untiered(t, s)
	req := saxpyReq
	req.Tier = "exact"
	if got, err := s.Analyze(ctx, req); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("tier=exact answered %+v, %v; want %+v", got, err, want)
	}

	req.Tier = "warp"
	const msg = `macs: unknown tier "warp" (want exact, fast or auto)`
	if _, err := s.Analyze(ctx, req); err == nil || err.Error() != msg {
		t.Fatalf("unknown tier error = %v, want %q", err, msg)
	}
	if rec := serveBody(NewHandler(s), http.MethodPost, "/v1/analyze", mustJSON(t, req)); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("tier=warp over HTTP answered %d, want 422", rec.Code)
	}
	doc := scrape(t, s)
	if n, e := metric(doc, "macsd_requests_total", "analyze"), metric(doc, "macsd_request_errors_total", "analyze"); n != 1 || e != 1 {
		t.Errorf("analyze requests %v errors %v, want 1 and 1", n, e)
	}
}

// Two programs whose control flow depends on floating-point data: the
// tiered service could not predict them. dataDepSrc's two branch
// outcomes reconverge; unboundedSrc re-decides its comparison on every
// trip of a backward branch.
const dataDepSrc = `
PROGRAM DATADEP
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
IF (S .LT. 1.0) GOTO 10
10 CONTINUE
END
`

const unboundedSrc = `
PROGRAM UNBND
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
100 CONTINUE
S = S + 1.0
IF (S .LT. X(1)) GOTO 100
END
`

// TestAnalyzeAutoFallback: programs whose timing depends on data are
// simulated under every tier name. tier=auto answered them by falling
// back to the simulator and still gets that answer; tier=fast, which
// refused one and answered the other with an interval, now gets it too.
func TestAnalyzeAutoFallback(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	ctx := context.Background()
	for _, src := range []string{dataDepSrc, unboundedSrc} {
		req := AnalyzeRequest{Source: src, Iterations: 16, Prime: Priming{Ints: map[string]int64{"N": 16}}}
		want, err := s.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want.Tier != "exact" || want.Cycles <= 0 {
			t.Fatalf("untiered: tier %q, %d cycles", want.Tier, want.Cycles)
		}
		want.Cached = true
		for _, tier := range []string{"auto", "fast"} {
			req.Tier = tier
			got, err := s.Analyze(ctx, req)
			if err != nil {
				t.Fatalf("tier=%s: %v", tier, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tier=%s answered %+v, want %+v", tier, got, want)
			}
		}
	}
	if runs := pipelineRuns(t, s); runs != 2 {
		t.Errorf("pipeline ran %d times, want 2 (one per program)", runs)
	}
}

// TestAnalyzeLargeMemory: the same kernel fits a 64 MB machine, so a
// service configured with one answers it under every tier name.
func TestAnalyzeLargeMemory(t *testing.T) {
	vmc := macs.DefaultVMConfig()
	vmc.MemSize = 64 << 20
	s := newTestService(t, Config{Workers: 1, QueueSize: 4, VM: vmc})
	src := strings.ReplaceAll(saxpySrc, "2048", "3000000")
	for _, tier := range []string{"", "exact", "fast", "auto"} {
		res, err := s.Analyze(context.Background(), AnalyzeRequest{
			Source: src, Iterations: 64, Prime: Priming{Ints: map[string]int64{"N": 64}}, Tier: tier,
		})
		if err != nil || res.MeasuredCPL <= 0 {
			t.Errorf("tier=%q: measured CPL %g, error %v", tier, res.MeasuredCPL, err)
		}
	}
}

// TestAnalyzeFastOutOfRange: a kernel whose data does not fit the
// simulated memory fails under every tier name with the simulator's own
// error.
func TestAnalyzeFastOutOfRange(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	src := strings.ReplaceAll(saxpySrc, "2048", "3000000")
	if src == saxpySrc {
		t.Fatal("saxpySrc no longer declares 2048-element arrays")
	}
	const want = `mem: out of memory allocating "d_X" (24000000 bytes)`
	for _, tier := range []string{"", "exact", "fast", "auto"} {
		_, err := s.Analyze(context.Background(), AnalyzeRequest{
			Source: src, Iterations: 1000, Prime: Priming{Ints: map[string]int64{"N": 1000}}, Tier: tier,
		})
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("tier=%q error = %v, want one ending in %q", tier, err, want)
		}
	}
}
