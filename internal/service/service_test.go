package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"macs"
)

const saxpySrc = `
PROGRAM SAXPY
REAL X(2048), Y(2048), A
INTEGER N, K
DO K = 1, N
  Y(K) = Y(K) + A*X(K)
ENDDO
END
`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestAnalyzeAndCacheFlag(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{
		Source:     saxpySrc,
		Iterations: 64,
		Prime:      Priming{Ints: map[string]int64{"N": 64}, Reals: map[string]float64{"A": 2.5}},
	}
	r1, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request served from cache")
	}
	if r1.Bounds.TMACS <= 0 || r1.Cycles <= 0 || r1.MeasuredCPL <= 0 {
		t.Fatalf("implausible result: %+v", r1)
	}
	r2, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical second request missed the cache")
	}
	if r2.Bounds != r1.Bounds || r2.Cycles != r1.Cycles {
		t.Fatal("cached result differs from computed result")
	}
	if got := pipelineRuns(t, s); got != 1 {
		t.Fatalf("pipeline ran %d times; want 1", got)
	}
}

// TestConcurrentIdenticalRequestsDedup is the singleflight guarantee:
// many concurrent identical requests share exactly one execution.
// Run under -race.
func TestConcurrentIdenticalRequestsDedup(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueSize: 64})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}}

	const clients = 16
	var wg sync.WaitGroup
	results := make([]AnalyzeResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Analyze(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("client %d saw different cycles", i)
		}
	}
	if got := pipelineRuns(t, s); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests; want 1", got, clients)
	}
	m := scrape(t, s)
	if shared := metric(m, "macsd_dedup_shared_total", "") + metric(m, "macsd_cache_hits_total", ""); shared < clients-1 {
		t.Fatalf("dedup+hits = %v; want >= %d", shared, clients-1)
	}
}

// TestQueueFullBackpressure: with the lone worker blocked and the queue
// full, a new request fails fast with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 1})
	release := make(chan struct{})
	defer close(release)
	if err := s.pool.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.pool.Stats().InFlight == 1 })
	if err := s.pool.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Analyze with full queue: %v; want ErrQueueFull", err)
	}
}

// TestRequestTimeoutCancelsQueuedWork: a request whose context expires
// while its job is still queued returns DeadlineExceeded, and the
// abandoned job is skipped — the pipeline never runs for it.
func TestRequestTimeoutCancelsQueuedWork(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 4})
	release := make(chan struct{})
	if err := s.pool.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.pool.Stats().InFlight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Analyze(ctx, AnalyzeRequest{Source: saxpySrc})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Analyze = %v; want DeadlineExceeded", err)
	}

	close(release)
	s.Close() // drain: the abandoned job is dequeued (and skipped) here
	if got := pipelineRuns(t, s); got != 0 {
		t.Fatalf("pipeline ran %d times for an abandoned request; want 0", got)
	}
}

// TestCloseDrainsInFlightRequests: jobs accepted before shutdown finish
// and deliver results; Close blocks until they do.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 4})
	release := make(chan struct{})
	if err := s.pool.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.pool.Stats().InFlight == 1 })

	type out struct {
		resp AnalyzeResponse
		err  error
	}
	done := make(chan out, 1)
	go func() {
		var o out
		o.resp, o.err = s.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc, Iterations: 16,
			Prime: Priming{Ints: map[string]int64{"N": 16}}})
		done <- o
	}()
	waitFor(t, func() bool { return s.pool.Stats().Depth == 1 })

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	s.Close() // must wait for the queued analysis to run

	o := <-done
	if o.err != nil {
		t.Fatalf("drained request failed: %v", o.err)
	}
	if o.resp.Bounds.TMACS <= 0 {
		t.Fatalf("drained request returned empty result: %+v", o.resp)
	}
	if got := pipelineRuns(t, s); got != 1 {
		t.Fatalf("pipeline ran %d times; want 1", got)
	}
}

// TestWithDefaultsPartialVMConfig is the regression test for the silent
// VM-config clobbering bug: a caller's partial VM configuration (custom
// memory model, VLMax left unset) used to be thrown away wholesale and
// replaced with the defaults. Only the zero fields may be defaulted.
func TestWithDefaultsPartialVMConfig(t *testing.T) {
	cfg := Config{VM: macs.VMConfig{Machine: macs.Machine{
		MemSlowdown:   2.5,
		BankConflicts: true,
		RefreshStalls: true,
	}}}
	got := cfg.withDefaults().VM
	if got.MemSlowdown != 2.5 {
		t.Fatalf("partial VM config clobbered: MemSlowdown = %v, want 2.5", got.MemSlowdown)
	}
	d := macs.DefaultVMConfig()
	if got.VLMax != d.VLMax {
		t.Fatalf("unset VLMax not defaulted: %d, want %d", got.VLMax, d.VLMax)
	}
	if got.Rules != d.Rules || got.MemSize != d.MemSize || got.MaxCycles != d.MaxCycles ||
		got.MaxInstrs != d.MaxInstrs || got.ScalarLoadLat != d.ScalarLoadLat {
		t.Fatalf("unset fields not defaulted: %+v", got)
	}
	if !got.BankConflicts || !got.RefreshStalls {
		t.Fatalf("caller-set booleans lost: %+v", got)
	}

	// A fully zero VM config still takes the defaults wholesale,
	// including the default-true booleans — plus the service's bounded
	// trace ring, which the serving layer enables on top of the facade's
	// defaults so traced requests can merge simulator lanes.
	want := d
	want.TraceRing = defaultTraceRing
	if def := (Config{}).withDefaults().VM; def != want {
		t.Fatalf("zero VM config = %+v, want defaults %+v", def, want)
	}

	// The partially-configured service actually works end to end.
	s := newTestService(t, Config{Workers: 1, QueueSize: 4,
		VM: macs.VMConfig{Machine: macs.Machine{MemSlowdown: 2.0, BankConflicts: true, RefreshStalls: true}}})
	r, err := s.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("implausible result under partial VM config: %+v", r)
	}
}

// TestAnalyzeAfterCloseErrClosed: Close is an accept gate — every public
// entry point refuses new work with ErrClosed afterwards instead of
// reaching into the drained pool.
func TestAnalyzeAfterCloseErrClosed(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 4})
	s.Close()
	ctx := context.Background()
	if _, err := s.Analyze(ctx, AnalyzeRequest{Source: saxpySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Analyze after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Bound(ctx, BoundRequest{Source: saxpySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Bound after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Check(ctx, CheckRequest{Source: saxpySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Check after Close = %v, want ErrClosed", err)
	}
	if _, err := s.AX(ctx, AXRequest{Source: saxpySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AX after Close = %v, want ErrClosed", err)
	}
	if _, err := s.LFK(ctx, 12); !errors.Is(err, ErrClosed) {
		t.Fatalf("LFK after Close = %v, want ErrClosed", err)
	}
	err := s.AnalyzeBatch(ctx, BatchRequest{Items: []AnalyzeRequest{{Source: saxpySrc}}}, func(BatchItemResult) {})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("AnalyzeBatch after Close = %v, want ErrClosed", err)
	}
}

// saxpyVariant builds a distinct-but-valid kernel source per dim, so a
// stress test can force fresh computations (distinct cache keys) at will.
func saxpyVariant(dim int) string {
	return fmt.Sprintf(`
PROGRAM SAXPY
REAL X(%d), Y(%d), A
INTEGER N, K
DO K = 1, N
  Y(K) = Y(K) + A*X(K)
ENDDO
END
`, dim, dim)
}

// TestCloseRacesAutoTierRequests: Close racing a stream of fresh
// analyses that old clients tag tier=auto (served exactly, like any
// other) is an accept gate plus a drain. Every request completes, sheds
// with ErrQueueFull or is refused with ErrClosed, and nothing is
// accepted after Close returns. Run under -race.
func TestCloseRacesAutoTierRequests(t *testing.T) {
	for round := 0; round < 4; round++ {
		s := New(Config{Workers: 4, QueueSize: 64})
		ctx := context.Background()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					// Distinct sources force fresh pipeline runs, so every
					// accepted request reaches the worker pool.
					req := AnalyzeRequest{
						Source: saxpyVariant(64 + round*1000 + g*100 + j),
						Tier:   "auto",
						Prime:  Priming{Ints: map[string]int64{"N": 8}},
					}
					_, err := s.Analyze(ctx, req)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil && !errors.Is(err, ErrQueueFull) {
						t.Errorf("analyze: %v", err)
						return
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(1+round) * 5 * time.Millisecond)
		s.Close()
		wg.Wait()
		if _, err := s.Analyze(ctx, AnalyzeRequest{Source: saxpySrc}); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Analyze after Close = %v, want ErrClosed", round, err)
		}
	}
}

func TestBoundNoSimulation(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	r, err := s.Bound(context.Background(), BoundRequest{Source: saxpySrc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bounds.TMA <= 0 || r.Bounds.TMACS < r.Bounds.TMAC {
		t.Fatalf("implausible hierarchy: %+v", r.Bounds)
	}
	r2, err := s.Bound(context.Background(), BoundRequest{Source: saxpySrc})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second bound request missed the cache")
	}
}

func TestAXEndpointMeasures(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	r, err := s.AX(context.Background(), AXRequest{Source: saxpySrc,
		Prime: Priming{Ints: map[string]int64{"N": 32}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.TP <= 0 || r.TA <= 0 || r.TX <= 0 {
		t.Fatalf("implausible A/X measurement: %+v", r)
	}
}

func TestAnalyzeCompileErrorNotCached(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	req := AnalyzeRequest{Source: "PROGRAM P\nREAL X(8)\nINTEGER K\nX(1) = 1.0\nEND\n"}
	if _, err := s.Analyze(context.Background(), req); err == nil {
		t.Fatal("analyze of loop-less source succeeded; want error")
	}
	if _, err := s.Analyze(context.Background(), req); err == nil {
		t.Fatal("second analyze succeeded; want error again")
	}
	// Both attempts executed: failures are not cached.
	if got := pipelineRuns(t, s); got != 2 {
		t.Fatalf("pipeline ran %d times; want 2 (errors uncached)", got)
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after failures; want 0", got)
	}
}

// TestSingleflightLateWaiterAfterLeaderTimeout drives the edge where the
// leader's context expires while its job is still queued and another
// request attaches to the abandoned flight afterwards: the late waiter
// must observe a result or an error — never hang — and PipelineRuns must
// stay consistent with what actually executed.
func TestSingleflightLateWaiterAfterLeaderTimeout(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 8})

	// Occupy the single worker so the leader's job cannot start.
	release := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(context.Background(), func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	req := AnalyzeRequest{Source: saxpySrc}
	lctx, lcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer lcancel()
	if _, err := s.Analyze(lctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want deadline exceeded", err)
	}

	// The leader was the only waiter, so its departure cancelled the
	// flight while the job sits in the queue. Attach a late waiter.
	waiterErr := make(chan error, 1)
	var waiterResp AnalyzeResponse
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer wcancel()
		r, err := s.Analyze(wctx, req)
		waiterResp = r
		waiterErr <- err
	}()

	// Let the waiter attach (or lead a fresh flight — both are legal
	// interleavings), then free the worker.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case err := <-waiterErr:
		runs := pipelineRuns(t, s)
		switch {
		case err == nil:
			// The waiter led (or re-led) a live flight and got a result.
			if waiterResp.Cycles <= 0 {
				t.Errorf("waiter result implausible: %+v", waiterResp)
			}
			if runs != 1 {
				t.Errorf("pipeline ran %d times; want 1", runs)
			}
		case errors.Is(err, context.Canceled):
			// The waiter attached to the abandoned flight and saw its
			// cancellation; nothing executed.
			if runs != 0 {
				t.Errorf("cancelled flight but pipeline ran %d times", runs)
			}
		default:
			t.Errorf("waiter error = %v, want nil or context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("late waiter hung")
	}

	// The service must still be fully usable: a fresh request succeeds.
	r, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("post-edge analyze implausible: %+v", r)
	}
}

// TestSingleflightWaiterAttachedBeforeLeaderTimeout covers the sibling
// interleaving: a second waiter attaches while the leader is still
// waiting, the leader then times out, and the surviving waiter keeps the
// flight alive to completion.
func TestSingleflightWaiterAttachedBeforeLeaderTimeout(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(context.Background(), func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	req := AnalyzeRequest{Source: saxpySrc}
	leaderErr := make(chan error, 1)
	lctx, lcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer lcancel()
	go func() {
		_, err := s.Analyze(lctx, req)
		leaderErr <- err
	}()

	// Attach the second waiter while the leader is still queued.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 1
	})
	waiterErr := make(chan error, 1)
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer wcancel()
		_, err := s.Analyze(wctx, req)
		waiterErr <- err
	}()
	waitFor(t, func() bool { return metric(scrape(t, s), "macsd_dedup_shared_total", "") == 1 })

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want deadline exceeded", err)
	}
	close(release)
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("surviving waiter error = %v, want result", err)
		}
		if got := pipelineRuns(t, s); got != 1 {
			t.Errorf("pipeline ran %d times; want 1", got)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("surviving waiter hung")
	}
}

// TestEndpointsShareServiceMachine: every endpoint answers for the
// service's configured machine, not the default one. On a VLMax-64
// machine without chaining, bound must report the hierarchy analyze
// reports, ax must time the program analyze simulates, and LFK1 must
// still validate — which it cannot when compiled at VL 128 and run with
// every strip clamped to 64 elements.
func TestEndpointsShareServiceMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers, cfg.QueueSize = 2, 8
	cfg.VM.VLMax = 64
	cfg.VM.Rules.Chaining = false
	s := newTestService(t, cfg)
	ctx := context.Background()
	prime := Priming{Ints: map[string]int64{"N": 2048}, Reals: map[string]float64{"A": 2.5}}

	an, err := s.Analyze(ctx, AnalyzeRequest{Source: saxpySrc, Iterations: 2048, Prime: prime})
	if err != nil {
		t.Fatal(err)
	}
	if an.Bounds.VL != 64 {
		t.Fatalf("analyze bounded at VL %d, want the machine's 64", an.Bounds.VL)
	}
	b, err := s.Bound(ctx, BoundRequest{Source: saxpySrc})
	if err != nil {
		t.Fatal(err)
	}
	if b.Bounds != an.Bounds {
		t.Errorf("bound = %+v, analyze = %+v", b.Bounds, an.Bounds)
	}
	ax, err := s.AX(ctx, AXRequest{Source: saxpySrc, Prime: prime})
	if err != nil {
		t.Fatal(err)
	}
	if ax.TP != an.Cycles {
		t.Errorf("ax t_p = %d cycles, analyze simulated %d", ax.TP, an.Cycles)
	}
	lfk, err := s.LFK(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lfk.Validated {
		t.Errorf("LFK1 does not validate on the service's machine: %+v", lfk)
	}
}

// TestCachedAnalysisHoldsOnlyItsAnswer: a cached analyze response keeps
// its statistics, not the run that produced them (program, chime
// partition, trace events). It fills the cache with distinct LFK1
// analyses and measures the live heap each entry adds after a GC.
func TestCachedAnalysisHoldsOnlyItsAnswer(t *testing.T) {
	k, err := macs.KernelByID(1)
	if err != nil {
		t.Fatal(err)
	}
	const entries = 32
	s := newTestService(t, Config{Workers: 2, QueueSize: 8, CacheSize: entries})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	for i := 0; i < entries; i++ {
		req := AnalyzeRequest{Source: k.Source, Iterations: int64(i + 1),
			Prime: Priming{Ints: k.Ints, Reals: k.Reals, Arrays: k.Arrays}}
		if _, err := s.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := (int64(heap()) - int64(base)) / entries
	t.Logf("%d cached analyses: %d bytes each", entries, perEntry)
	if perEntry > 8<<10 {
		t.Errorf("each cached analysis holds %d bytes of heap, want at most 8 KB", perEntry)
	}
}
