// Package service turns the one-shot MACS pipeline (compile → bound →
// simulate → A/X → diagnose) into a long-lived, concurrent analysis
// service: a bounded worker pool with queue backpressure, a
// content-addressed LRU result cache with singleflight deduplication of
// concurrent identical requests, and an observability layer (counters,
// latency histograms, cache and queue stats). The HTTP front end lives
// in http.go; cmd/macsd is the daemon around it.
//
// The service wraps the public macs facade and never reaches into the
// simulator, so serving semantics and model semantics stay decoupled.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"macs"
	"macs/internal/obs"
)

// Config sizes the service. Zero fields take the Default values.
type Config struct {
	// Workers is the number of concurrent pipeline executions.
	Workers int
	// QueueSize bounds pending jobs; beyond it Submit sheds load (429).
	QueueSize int
	// CacheSize bounds the result cache, in entries.
	CacheSize int
	// CacheDir, when non-empty, adds a persistent second-level cache
	// behind the in-memory LRU: results are appended to disk segments in
	// this directory and survive restarts. Entries written under a
	// different schema version or pipeline configuration self-invalidate
	// on open.
	CacheDir string
	// RequestTimeout bounds one request end to end (queue wait included).
	RequestTimeout time.Duration
	// Compiler, VM and Rules are part of every cache key, through one
	// digest taken when the service is built. VM is the
	// machine every endpoint answers for: its VLMax sets the compile-time
	// strip length (Analyzer.CompilerOptions) and its Rules form the
	// chimes. Compiler seeds the explore engine's per-machine compiles.
	Compiler macs.CompilerOptions
	VM       macs.VMConfig
	Rules    macs.Rules
	// RuntimeSample, when > 0, starts a periodic Go-runtime sampler (heap,
	// GC, goroutines) at that interval and surfaces the latest sample on
	// /metrics in both formats. Zero leaves the sampler off.
	RuntimeSample time.Duration
	// TraceKeep bounds how many completed request traces are retained for
	// GET /v1/trace/{id}; 0 takes the default (128).
	TraceKeep int
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

// DefaultConfig returns production-shaped defaults: one worker per CPU,
// a queue twice as deep, and the paper's C-240 model configuration.
func DefaultConfig() Config {
	vmCfg := macs.DefaultVMConfig()
	// A bounded trace ring keeps the most recent vector timing events of
	// every run so traced requests can merge simulator lanes into their
	// timeline; the ring is cheap enough to leave on unconditionally.
	vmCfg.TraceRing = defaultTraceRing
	return Config{
		Workers:        runtime.NumCPU(),
		QueueSize:      2 * runtime.NumCPU(),
		CacheSize:      512,
		RequestTimeout: 30 * time.Second,
		Compiler:       macs.DefaultCompilerOptions(),
		VM:             vmCfg,
		Rules:          macs.DefaultRules(),
		TraceKeep:      defaultTraceKeep,
	}
}

const (
	// defaultTraceRing bounds the per-run vector timing event buffer.
	defaultTraceRing = 4096
	// defaultTraceKeep bounds the completed-trace store.
	defaultTraceKeep = 128
)

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueSize <= 0 {
		c.QueueSize = d.QueueSize
	}
	if c.CacheSize <= 0 {
		c.CacheSize = d.CacheSize
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.TraceKeep <= 0 {
		c.TraceKeep = d.TraceKeep
	}
	if c.Compiler == (macs.CompilerOptions{}) {
		c.Compiler = d.Compiler
	}
	c.VM = mergeVMDefaults(c.VM, d.VM)
	if c.Rules == (macs.Rules{}) {
		c.Rules = d.Rules
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	return c
}

// mergeVMDefaults fills only the zero fields of a caller's VM
// configuration with the defaults. A fully zero config takes the
// defaults wholesale (including the default-true booleans); a partial
// config keeps every field the caller set — a custom memory model or
// timing table is never silently clobbered just because VLMax was left
// unset. Boolean fields of a partial config are taken as given: false
// there is a deliberate choice, since Go cannot distinguish "unset" from
// "disabled".
func mergeVMDefaults(c, d macs.VMConfig) macs.VMConfig {
	if c == (macs.VMConfig{}) {
		return d
	}
	if c.VLMax == 0 {
		c.VLMax = d.VLMax
	}
	if c.Rules == (macs.Rules{}) {
		c.Rules = d.Rules
	}
	if c.Banks == 0 {
		c.Banks = d.Banks
	}
	if c.BankCycle == 0 {
		c.BankCycle = d.BankCycle
	}
	if c.RefreshPeriod == 0 {
		c.RefreshPeriod = d.RefreshPeriod
	}
	if c.RefreshLen == 0 {
		c.RefreshLen = d.RefreshLen
	}
	if c.MemSlowdown == 0 {
		c.MemSlowdown = d.MemSlowdown
	}
	if c.ScalarLoadLat == 0 {
		c.ScalarLoadLat = d.ScalarLoadLat
	}
	if c.ScalarOpLat == 0 {
		c.ScalarOpLat = d.ScalarOpLat
	}
	if c.BranchPenalty == 0 {
		c.BranchPenalty = d.BranchPenalty
	}
	if c.DispatchLat == 0 {
		c.DispatchLat = d.DispatchLat
	}
	if c.MemSize == 0 {
		c.MemSize = d.MemSize
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = d.MaxCycles
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = d.MaxInstrs
	}
	if c.TraceRing == 0 && !c.Trace {
		c.TraceRing = d.TraceRing
	}
	return c
}

// flight is one in-progress computation shared by every concurrent
// request with the same key (singleflight). The flight's context is
// detached from any single waiter; when the last waiter gives up, the
// flight is cancelled so queued work is skipped, not executed.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Service is the concurrent MACS analysis engine.
type Service struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	disk    *DiskCache // nil when Config.CacheDir is empty or unusable
	metrics *metrics
	log     *slog.Logger
	// analyzer runs every cache-miss analysis on the service's machine.
	analyzer *macs.Analyzer

	// config is configFingerprint(cfg), taken once in New: every content
	// key and every persistent segment header carries it, so no request
	// re-encodes the configuration. configErr is its failure, which every
	// keyed request then returns.
	config    string
	configErr error

	mu      sync.Mutex
	flights map[Key]*flight

	// closeMu guards closed, the accept gate Close flips.
	closeMu sync.Mutex
	closed  bool

	// sampler periodically snapshots the Go runtime when
	// Config.RuntimeSample > 0; nil otherwise.
	sampler *obs.RuntimeSampler

	// traceMu guards traces, a bounded FIFO of completed request traces
	// keyed for GET /v1/trace/{id}.
	traceMu    sync.Mutex
	traces     map[string]*obs.Trace
	traceOrder []string
}

// New builds a Service and starts its worker pool. When Config.CacheDir
// is set, the persistent cache is opened (or created) there; an unusable
// directory is logged and the service runs memory-only rather than
// failing to start.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers, cfg.QueueSize),
		cache:    NewCache(cfg.CacheSize),
		log:      cfg.Logger,
		analyzer: macs.NewAnalyzer(cfg.VM),
		flights:  make(map[Key]*flight),
		traces:   make(map[string]*obs.Trace),
	}
	if cfg.RuntimeSample > 0 {
		s.sampler = obs.StartRuntimeSampler(cfg.RuntimeSample)
	}
	s.config, s.configErr = configFingerprint(cfg)
	if cfg.CacheDir != "" {
		err := s.configErr
		if err == nil {
			s.disk, err = OpenDiskCache(cfg.CacheDir, s.config)
		}
		if err != nil {
			s.log.Warn("persistent cache disabled", "dir", cfg.CacheDir, "err", err)
		} else {
			ds := s.disk.Stats()
			s.log.Info("persistent cache open", "dir", cfg.CacheDir,
				"entries", ds.Entries, "segments", ds.Segments, "invalidated", ds.Invalidated)
		}
	}
	s.metrics = newMetrics(s)
	return s
}

// configFingerprint hashes everything that determines a cached result's
// meaning: the persistent-cache schema version and the pipeline
// configuration. The machine half goes in through the canonical
// vm.Machine fingerprint — the one every explore point reports — and the
// run-bound remainder of the VM config rides alongside. Segments written under a different fingerprint
// are dropped on open, so stale schemas and stale machine models
// self-invalidate.
func configFingerprint(cfg Config) (string, error) {
	run := cfg.VM
	run.Machine = macs.Machine{} // keyed separately via Fingerprint
	k, err := NewKey("cache-fingerprint", fmt.Sprintf("v%d", diskCacheVersion),
		cfg.Compiler, cfg.VM.Machine.Fingerprint(), run, cfg.Rules)
	return string(k), err
}

// key is the content address of one request under the service's
// configuration: the request's own parts behind the configuration digest.
func (s *Service) key(kind, source string, parts ...any) (Key, error) {
	if s.configErr != nil {
		return "", s.configErr
	}
	return NewKey(kind, source, append([]any{s.config}, parts...)...)
}

// Close drains the service: the accept gate flips first, so no new
// request is accepted afterwards, then every already-accepted queued and
// in-flight job runs to completion before Close returns. Requests
// arriving after Close fail with ErrClosed.
func (s *Service) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.pool.Close()
	if s.disk != nil {
		s.disk.Close()
	}
	s.sampler.Stop() // nil-safe
}

// finishRequest counts one finished /v1 request under endpoint — its
// root span's duration, whether it failed, and the stages nested under
// the root — and retains its trace for GET /v1/trace/{id}, evicting the
// oldest once TraceKeep is exceeded. The trace is kept as it is: its
// snapshot, simulator lanes included, is built only if someone asks for
// it.
func (s *Service) finishRequest(endpoint string, tr *obs.Trace, root *obs.Span, failed bool) {
	s.metrics.observeRequest(endpoint, root.Duration(), failed, tr.NestedDurations())
	id := tr.ID()
	s.traceMu.Lock()
	if _, ok := s.traces[id]; !ok {
		s.traceOrder = append(s.traceOrder, id)
	}
	s.traces[id] = tr
	for len(s.traceOrder) > s.cfg.TraceKeep {
		delete(s.traces, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
	s.traceMu.Unlock()
}

// TraceByID returns the snapshot of one retained request trace.
func (s *Service) TraceByID(id string) (obs.TraceView, bool) {
	s.traceMu.Lock()
	tr, ok := s.traces[id]
	s.traceMu.Unlock()
	if !ok {
		return obs.TraceView{}, false
	}
	return tr.View(), true
}

// acceptGate rejects work arriving after Close flipped the closed flag.
// Every public entry point checks it, so a closed service answers
// ErrClosed before it decodes, keys or queues anything — including the
// raw-hit path, which never reaches the pool.
func (s *Service) acceptGate() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// decodeFunc rehydrates one persisted JSON value into the concrete
// response type its cache key stores; each endpoint passes its own.
type decodeFunc func([]byte) (any, error)

// decodeJSON builds the decodeFunc for one response type. The returned
// value is a *T, matching what the compute closures put in the memory
// cache, so callers type-assert identically on both paths.
func decodeJSON[T any]() decodeFunc {
	return func(b []byte) (any, error) {
		v := new(T)
		if err := json.Unmarshal(b, v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// hitSlot records what one HTTP request's keyed path did in do, so
// handleJSON can tell whether its answer may be served again by raw
// body. Only a cache hit qualifies: the request's one do call served
// from memory or disk, with no pipeline run and no flight. Anything else
// (a miss, an error, a request refused before its do call) must run
// again to keep its counters and side effects. Only the request's own
// goroutine touches its slot.
type hitSlot struct {
	hit bool
	key Key
}

// slotKey is the context key of a request's *hitSlot.
type slotKey struct{}

// do is the heart of the service: the two-level lookup, singleflight
// attach or lead, pool submission with backpressure, and context-bounded
// waiting. It returns (value, servedFromCache, error): cached is true
// when the value came from either cache level.
// dec may be nil for results that should not persist. do records the
// key and whether it was a hit in the request's hitSlot, if it carries
// one.
func (s *Service) do(ctx context.Context, key Key, dec decodeFunc, fn func() (any, error)) (v any, cached bool, err error) {
	if sl, ok := ctx.Value(slotKey{}).(*hitSlot); ok {
		defer func() { sl.key, sl.hit = key, cached && err == nil }()
	}
	if v, hit := s.lookup(ctx, key, dec); hit {
		return v, true, nil
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		s.metrics.dedupShared.Add("", 1)
		_, sp := obs.Start(ctx, "singleflight-wait")
		v, err := s.wait(ctx, f)
		sp.End()
		return v, false, err
	}
	// A flight that landed since the lookup above has already cached its
	// value: flights cache before they leave s.flights.
	if v, ok := s.cache.peek(key); ok {
		s.mu.Unlock()
		return v, true, nil
	}
	// Lead a new flight. Its context is detached from this request so a
	// single waiter's timeout cannot kill a computation others share; it
	// is cancelled only when every waiter has gone away.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.flights[key] = f
	s.mu.Unlock()

	err = s.pool.Submit(fctx, func(jctx context.Context) {
		var v any
		var jerr error
		if jerr = jctx.Err(); jerr == nil {
			s.metrics.pipelineRuns.Add("", 1)
			v, jerr = fn()
		}
		if jerr == nil {
			s.cache.Put(key, v)
		}
		s.mu.Lock()
		f.val, f.err = v, jerr
		if s.flights[key] == f {
			delete(s.flights, key)
		}
		s.mu.Unlock()
		if jerr == nil {
			s.diskPut(key, dec, v)
		}
		cancel()
		close(f.done)
	})
	if err != nil {
		// The queue rejected the job. Fail the flight (not just this
		// caller): a waiter may have attached while the lock was
		// released, and it must see the error rather than hang.
		s.mu.Lock()
		f.err = err
		if s.flights[key] == f {
			delete(s.flights, key)
		}
		s.mu.Unlock()
		cancel()
		close(f.done)
		return nil, false, err
	}
	// The flight-wait span covers queue time plus compute time as seen by
	// the leading request; the compute closure's own stage spans nest as
	// siblings under the same root (the flight context snapshot predates
	// this span).
	_, sp := obs.Start(ctx, "flight-wait")
	v, err = s.wait(ctx, f)
	sp.End()
	return v, false, err
}

// lookup reads key from the memory cache, then from the persistent
// cache, filling memory on a disk hit. Each level is a span on ctx's
// trace.
func (s *Service) lookup(ctx context.Context, key Key, dec decodeFunc) (any, bool) {
	_, sp := obs.Start(ctx, "cache-lookup")
	v, hit := s.cache.Get(key)
	sp.End()
	if hit {
		return v, true
	}
	_, sp = obs.Start(ctx, "disk-lookup")
	v, hit = s.diskGet(key, dec)
	sp.End()
	if hit {
		s.cache.Put(key, v)
	}
	return v, hit
}

// diskGet consults the persistent cache and rehydrates a hit through the
// endpoint's decoder. Undecodable entries (a schema the fingerprint did
// not catch) are treated as misses.
func (s *Service) diskGet(key Key, dec decodeFunc) (any, bool) {
	if s.disk == nil || dec == nil {
		return nil, false
	}
	b, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	v, err := dec(b)
	if err != nil {
		s.log.Warn("persistent cache entry undecodable", "key", string(key), "err", err)
		return nil, false
	}
	return v, true
}

// diskPut persists one fresh result. Write failures degrade to
// memory-only caching, never to request failures.
func (s *Service) diskPut(key Key, dec decodeFunc, v any) {
	if s.disk == nil || dec == nil {
		return
	}
	b, err := json.Marshal(v)
	if err == nil {
		err = s.disk.Put(key, b)
	}
	if err != nil {
		s.log.Warn("persistent cache write failed", "key", string(key), "err", err)
	}
}

// wait blocks until the flight completes or ctx expires. A waiter that
// gives up deregisters; the last one to leave cancels the flight so a
// still-queued job is skipped by the worker.
func (s *Service) wait(ctx context.Context, f *flight) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		abandon := f.waiters == 0
		s.mu.Unlock()
		if abandon {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}

// logRequest logs one finished endpoint call. The HTTP handler, not the
// call, counts the request on /metrics.
func (s *Service) logRequest(endpoint string, start time.Time, cached bool, err error) {
	d := time.Since(start)
	if err != nil {
		s.log.Info("request", "endpoint", endpoint, "dur", d, "err", err)
		return
	}
	s.log.Info("request", "endpoint", endpoint, "dur", d, "cached", cached)
}

// Priming is the request shape of a program's inputs: scalar integers,
// scalar reals and real arrays by Fortran variable name. It is part of
// the cache key — different inputs are different results.
type Priming = macs.Inputs

// AnalyzeRequest asks for the full pipeline: compile, bound, simulate.
type AnalyzeRequest struct {
	Source string `json:"source"`
	// Iterations converts measured cycles to CPL; 0 skips the conversion.
	Iterations int64   `json:"iterations,omitempty"`
	Prime      Priming `json:"prime,omitempty"`
	// Tier is accepted for old clients only: every analysis simulates.
	// "", "exact", "fast" and "auto" all get the exact answer; any other
	// name is an error. The ?tier= query parameter overrides it.
	Tier string `json:"tier,omitempty"`
}

// checkTier accepts the tier names old clients send. None changes the
// answer: every analysis simulates.
func checkTier(name string) error {
	switch name {
	case "", "exact", "fast", "auto":
		return nil
	}
	return fmt.Errorf("macs: unknown tier %q (want exact, fast or auto)", name)
}

// BoundsView is the MA/MAC/MACS hierarchy in CPL, JSON-shaped.
type BoundsView struct {
	TMA    float64 `json:"t_ma"`
	TMAC   float64 `json:"t_mac"`
	TMACS  float64 `json:"t_macs"`
	TMACSF float64 `json:"t_macs_f"`
	TMACSM float64 `json:"t_macs_m"`
	// TCP is the dependence critical-path lower bound (0 when the
	// analyzer made no per-element claim).
	TCP    float64 `json:"t_cp"`
	Chimes int     `json:"chimes"`
	VL     int     `json:"vl"`
}

func boundsView(a macs.Analysis) BoundsView {
	return BoundsView{
		TMA:    a.TMA,
		TMAC:   a.TMAC,
		TMACS:  a.MACS.CPL,
		TMACSF: a.MACSF.CPL,
		TMACSM: a.MACSM.CPL,
		TCP:    a.TCP,
		Chimes: len(a.MACS.Chimes),
		VL:     a.VL,
	}
}

// AnalyzeResponse is the outcome of POST /v1/analyze.
type AnalyzeResponse struct {
	// Tier is always "exact": every analysis simulates.
	Tier        string     `json:"tier"`
	Bounds      BoundsView `json:"bounds"`
	MeasuredCPL float64    `json:"measured_cpl"`
	Cycles      int64      `json:"cycles"`
	Iterations  int64      `json:"iterations"`
	// Stats carries the full simulator statistics.
	Stats  *macs.Stats `json:"stats,omitempty"`
	Report string      `json:"report"`
	// Attribution is the run's lane-summed stall attribution by cause
	// (issue cycles under "issue"); a conserved ledger sums to
	// 4 lanes × Cycles.
	Attribution map[string]int64 `json:"attribution,omitempty"`
	// Cached reports whether this response was served from the result
	// cache rather than a fresh pipeline execution.
	Cached bool `json:"cached"`
	// Trace is the request's span/lane snapshot, filled only when the
	// caller asked for it (?trace=1). It is attached after the cache copy,
	// so cached entries never carry a stale trace.
	Trace *obs.TraceView `json:"trace,omitempty"`
}

// Analyze runs (or recalls) the pipeline for one kernel source: compile,
// bound, simulate.
func (s *Service) Analyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	if err := s.acceptGate(); err != nil {
		return AnalyzeResponse{}, err
	}
	start := time.Now()
	err := checkTier(req.Tier)
	var key Key
	if err == nil {
		key, err = s.key("analyze", req.Source, req.Iterations, req.Prime)
	}
	if err != nil {
		s.logRequest("analyze", start, false, err)
		return AnalyzeResponse{}, err
	}
	v, cached, err := s.do(ctx, key, decodeJSON[AnalyzeResponse](), func() (any, error) {
		// The request context rides into the closure for its trace values
		// only; cancellation is governed by the flight context the worker
		// checks before calling this.
		res, err := s.analyzer.AnalyzeSourceCtx(ctx, req.Source, req.Iterations, req.Prime.Prime())
		if err != nil {
			return nil, err
		}
		s.metrics.recordRun(res.Stats)
		// A copy: a pointer into res would keep the whole run (program,
		// chime partition, trace events) alive in the cache entry.
		st := res.Stats
		return &AnalyzeResponse{
			Tier:        macs.TierExact.String(),
			Bounds:      boundsView(res.Analysis),
			MeasuredCPL: res.MeasuredCPL,
			Cycles:      res.Stats.Cycles,
			Iterations:  res.Iterations,
			Stats:       &st,
			Report:      res.Report(),
			Attribution: res.Stats.Attr.Totals(),
		}, nil
	})
	s.logRequest("analyze", start, cached, err)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	resp := *v.(*AnalyzeResponse)
	resp.Cached = cached
	return resp, nil
}

// BoundRequest asks for the model only — no simulation.
type BoundRequest struct {
	Source string `json:"source"`
}

// BoundResponse is the outcome of POST /v1/bound.
type BoundResponse struct {
	Bounds BoundsView `json:"bounds"`
	Cached bool       `json:"cached"`
}

// Bound computes (or recalls) the MA/MAC/MACS hierarchy for a source.
func (s *Service) Bound(ctx context.Context, req BoundRequest) (BoundResponse, error) {
	if err := s.acceptGate(); err != nil {
		return BoundResponse{}, err
	}
	start := time.Now()
	key, err := s.key("bound", req.Source)
	if err != nil {
		s.logRequest("bound", start, false, err)
		return BoundResponse{}, err
	}
	v, cached, err := s.do(ctx, key, decodeJSON[BoundResponse](), func() (any, error) {
		a, err := s.analyzer.BoundSourceCtx(ctx, req.Source)
		if err != nil {
			return nil, err
		}
		return &BoundResponse{Bounds: boundsView(a)}, nil
	})
	s.logRequest("bound", start, cached, err)
	if err != nil {
		return BoundResponse{}, err
	}
	resp := *v.(*BoundResponse)
	resp.Cached = cached
	return resp, nil
}

// CheckRequest asks for static verification only: compile the source and
// run the checker, but never simulate or bound it.
type CheckRequest struct {
	Source string `json:"source"`
}

// CheckResponse is the outcome of POST /v1/check. OK means no
// error-severity findings; warnings and infos ride along either way.
type CheckResponse struct {
	OK          bool              `json:"ok"`
	Diagnostics []macs.Diagnostic `json:"diagnostics"`
	// Rendered carries the diagnostics formatted with the instruction text
	// they anchor to, for human display.
	Rendered []string `json:"rendered,omitempty"`
	Cached   bool     `json:"cached"`
}

// Check compiles a source and statically verifies the generated code.
// Findings are the result, not an error: a program full of problems still
// answers 200 with OK=false.
func (s *Service) Check(ctx context.Context, req CheckRequest) (CheckResponse, error) {
	if err := s.acceptGate(); err != nil {
		return CheckResponse{}, err
	}
	start := time.Now()
	key, err := s.key("check", req.Source)
	if err != nil {
		s.logRequest("check", start, false, err)
		return CheckResponse{}, err
	}
	v, cached, err := s.do(ctx, key, decodeJSON[CheckResponse](), func() (any, error) {
		p, err := macs.Compile(req.Source, s.analyzer.CompilerOptions())
		if err != nil {
			return nil, err
		}
		ds := macs.Verify(p)
		resp := &CheckResponse{OK: !hasVerifyErrors(ds), Diagnostics: ds}
		for _, d := range ds {
			resp.Rendered = append(resp.Rendered, d.Render(p))
		}
		return resp, nil
	})
	s.logRequest("check", start, cached, err)
	if err != nil {
		return CheckResponse{}, err
	}
	resp := *v.(*CheckResponse)
	resp.Cached = cached
	return resp, nil
}

func hasVerifyErrors(ds []macs.Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == macs.SevError {
			return true
		}
	}
	return false
}

// AXRequest asks for the A-process / X-process measurement of a source.
type AXRequest struct {
	Source string  `json:"source"`
	Prime  Priming `json:"prime,omitempty"`
}

// AXResponse is the outcome of POST /v1/ax, in raw cycles.
type AXResponse struct {
	TP     int64 `json:"t_p_cycles"`
	TA     int64 `json:"t_a_cycles"`
	TX     int64 `json:"t_x_cycles"`
	Cached bool  `json:"cached"`
}

// AX compiles a source and measures its A- and X-process run times. The
// compiled program is gated by the static checker first, as analyze's
// is, so a program it refuses answers with the same diagnostics.
func (s *Service) AX(ctx context.Context, req AXRequest) (AXResponse, error) {
	if err := s.acceptGate(); err != nil {
		return AXResponse{}, err
	}
	start := time.Now()
	key, err := s.key("ax", req.Source, req.Prime)
	if err != nil {
		s.logRequest("ax", start, false, err)
		return AXResponse{}, err
	}
	v, cached, err := s.do(ctx, key, decodeJSON[AXResponse](), func() (any, error) {
		p, err := macs.Compile(req.Source, s.analyzer.CompilerOptions())
		if err != nil {
			return nil, err
		}
		if err := macs.VerifyProgram(p); err != nil {
			return nil, err
		}
		m, err := macs.MeasureAX(p, s.cfg.VM, req.Prime.Prime())
		if err != nil {
			return nil, err
		}
		return &AXResponse{TP: m.TP, TA: m.TA, TX: m.TX}, nil
	})
	s.logRequest("ax", start, cached, err)
	if err != nil {
		return AXResponse{}, err
	}
	resp := *v.(*AXResponse)
	resp.Cached = cached
	return resp, nil
}

// LFKResponse is the outcome of GET /v1/lfk/{id}: the bounds hierarchy,
// the measured and A/X performance, validation status and the §4.4
// diagnosis for one case-study kernel.
type LFKResponse struct {
	ID        int        `json:"id"`
	Name      string     `json:"name"`
	Bounds    BoundsView `json:"bounds"`
	TP        float64    `json:"t_p"`
	TA        float64    `json:"t_a"`
	TX        float64    `json:"t_x"`
	Validated bool       `json:"validated"`
	Diagnosis string     `json:"diagnosis"`
	// Attribution is the measured run's lane-summed stall attribution by
	// cause (issue cycles under "issue").
	Attribution map[string]int64 `json:"attribution,omitempty"`
	Cached      bool             `json:"cached"`
}

// LFK runs (or recalls) the full case-study pipeline for one kernel id.
func (s *Service) LFK(ctx context.Context, id int) (LFKResponse, error) {
	if err := s.acceptGate(); err != nil {
		return LFKResponse{}, err
	}
	start := time.Now()
	key, err := s.key("lfk", fmt.Sprintf("%d", id))
	if err != nil {
		s.logRequest("lfk", start, false, err)
		return LFKResponse{}, err
	}
	v, cached, err := s.do(ctx, key, decodeJSON[LFKResponse](), func() (any, error) {
		k, err := macs.KernelByID(id)
		if err != nil {
			return nil, err
		}
		cfg := macs.DefaultExperimentConfig()
		cfg.VM = s.cfg.VM
		cfg.Compiler = s.analyzer.CompilerOptions()
		r, err := macs.RunKernel(k, cfg)
		if err != nil {
			return nil, err
		}
		diag := macs.Diagnose(macs.DiagnosisInputs{
			Analysis: r.Analysis,
			TP:       k.CPL(r.AX.TP),
			TA:       k.CPL(r.AX.TA),
			TX:       k.CPL(r.AX.TX),
			Attr:     &r.Stats.Attr,
		})
		s.metrics.recordRun(r.Stats)
		return &LFKResponse{
			ID:          k.ID,
			Name:        k.Name,
			Bounds:      boundsView(r.Analysis),
			TP:          k.CPL(r.Cycles),
			TA:          k.CPL(r.AX.TA),
			TX:          k.CPL(r.AX.TX),
			Validated:   r.Validated,
			Diagnosis:   diag.String(),
			Attribution: r.Stats.Attr.Totals(),
		}, nil
	})
	s.logRequest("lfk", start, cached, err)
	if err != nil {
		return LFKResponse{}, err
	}
	resp := *v.(*LFKResponse)
	resp.Cached = cached
	return resp, nil
}
