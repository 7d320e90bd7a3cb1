package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"macs"
	"macs/internal/calib"
	"macs/internal/explore"
	"macs/internal/fasttier"
	"macs/internal/isa"
	"macs/internal/obs"
	"macs/internal/service"
	"macs/internal/vm"
)

// This file is the traced run's re-enactment of the service: the same
// public calls the handler's path makes, in the same order, each wrapped
// in an internal/obs span named like the service's own span for that
// stage. Only the calls named in stages are timed; everything between
// them (response building, cache inserts, pool returns, machine lookups)
// is left to the reconciliation row, other.self_us.

// stages are the timed calls, in pipeline order.
var stages = []string{
	"decode", "key", "cache-lookup",
	"compile", "verify", "bound",
	"predict",
	"pool-checkout", "load", "prime", "simulate",
	"encode",
}

// allocStages are the stages whose heap allocation is also measured.
var allocStages = []string{"compile", "verify", "bound", "simulate"}

// tracer holds the traced pass's spans (one obs.Trace for the whole
// pass, one root span per request) and its counters.
type tracer struct {
	tr       *obs.Trace
	ctx      context.Context
	alloc    map[string]uint64
	sample   []metrics.Sample
	requests int
	lookups  int
	hits     int
	swept    int
	simPts   int
	cycles   int64
	// perRequest holds each request's simulated cycles, for the
	// comparison with the service's answers.
	perRequest [][]int64
}

func newTracer() *tracer {
	tr := obs.NewTrace("")
	return &tracer{
		tr:     tr,
		ctx:    obs.NewContext(context.Background(), tr),
		alloc:  make(map[string]uint64),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heap is the cumulative count of heap bytes allocated.
func (t *tracer) heap() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// span starts a stage span under ctx.
func span(ctx context.Context, name string) *obs.Span {
	_, sp := obs.Start(ctx, name)
	return sp
}

// allocSince charges the heap bytes allocated since from to a stage.
func (t *tracer) allocSince(stage string, from uint64) {
	t.alloc[stage] += t.heap() - from
}

func (t *tracer) lookup(hit bool) {
	t.lookups++
	if hit {
		t.hits++
	}
}

// perLayer turns the pass into the per-layer metrics. basis is the
// untraced time one request costs (mean latency, or CPU per request for
// a workload whose stages fan out over workers), against which the
// traced self times are reconciled; wall is the traced pass's duration.
func (t *tracer) perLayer(res *result, basis time.Duration, wall time.Duration, w *window) {
	n := float64(t.requests)
	durs := t.tr.StageDurations()
	var staged time.Duration
	for _, st := range stages {
		staged += durs[st]
		res.set(st+".self_us", float64(durs[st].Nanoseconds())/1e3/n, "us")
	}
	for _, st := range allocStages {
		res.set(st+".alloc_kb", float64(t.alloc[st])/1024/n, "KB")
	}
	hitRatio := 0.0
	if t.lookups > 0 {
		hitRatio = float64(t.hits) / float64(t.lookups)
	}
	res.set("cache.hit_ratio", hitRatio, "ratio")
	nsPerCycle := 0.0
	if t.cycles > 0 {
		nsPerCycle = float64(durs["simulate"].Nanoseconds()) / float64(t.cycles)
	}
	res.set("simulate.ns_per_cycle", nsPerCycle, "ns")
	res.set("simulate.cycles", float64(t.cycles), "cycles")
	simRatio := 0.0
	if t.swept > 0 {
		simRatio = float64(t.simPts) / float64(t.swept)
	}
	res.set("explore.simulated_ratio", simRatio, "ratio")

	basisUS := float64(basis.Nanoseconds()) / 1e3
	res.set("other.self_us", basisUS-float64(staged.Nanoseconds())/1e3/n, "us")
	wallUS := float64(wall.Nanoseconds()) / 1e3 / n
	res.set("trace.overhead_pct", 100*(wallUS-basisUS)/basisUS, "%")
	reqs := float64(w.requests)
	res.set("runtime.alloc_kb", float64(w.allocs)/1024/reqs, "KB")
	res.set("runtime.gc_per_1k", float64(w.gcs)*1000/reqs, "gc/1k-req")
}

// writeChrome renders the pass's spans as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string) error {
	b, err := obs.ChromeTrace(t.tr.View())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// primeFunc writes a request's inputs into a loaded simulator by
// variable name, the priming writes the service performs.
func primeFunc(p service.Priming) func(*vm.CPU) error {
	if len(p.Ints) == 0 && len(p.Reals) == 0 && len(p.Arrays) == 0 {
		return nil
	}
	return func(c *vm.CPU) error {
		m := c.Memory()
		addr := func(name string) (int64, error) {
			base, ok := m.SymbolAddr(macs.DataSymbol(name))
			if !ok {
				return 0, fmt.Errorf("priming unknown variable %q", name)
			}
			return base, nil
		}
		for name, v := range p.Ints {
			base, err := addr(name)
			if err != nil {
				return err
			}
			if err := m.WriteI64(base, v); err != nil {
				return err
			}
		}
		for name, v := range p.Reals {
			base, err := addr(name)
			if err != nil {
				return err
			}
			if err := m.WriteF64(base, v); err != nil {
				return err
			}
		}
		for name, vals := range p.Arrays {
			base, err := addr(name)
			if err != nil {
				return err
			}
			for i, v := range vals {
				if err := m.WriteF64(base+int64(i)*8, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// fastInts keys a request's integer inputs by data symbol, the shape the
// fast tier reads.
func fastInts(p service.Priming) map[string]int64 {
	if len(p.Ints) == 0 {
		return nil
	}
	out := make(map[string]int64, len(p.Ints))
	for name, v := range p.Ints {
		out[macs.DataSymbol(name)] = v
	}
	return out
}

func boundsView(a macs.Analysis) service.BoundsView {
	return service.BoundsView{
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

// analyzeTrace replays POST /v1/analyze (exact tier) with its own result
// cache and simulator pool.
type analyzeTrace struct {
	cfg   service.Config
	cache *service.Cache
	pool  *vm.Pool
}

func newAnalyzeTrace() *analyzeTrace {
	cfg := serviceConfig()
	return &analyzeTrace{cfg: cfg, cache: service.NewCache(cfg.CacheSize), pool: vm.NewPool(cfg.VM)}
}

// analyze replays one request and returns the cycles its answer reports.
func (a *analyzeTrace) analyze(t *tracer, body []byte) (int64, error) {
	ctx, root := obs.Start(t.ctx, "analyze")
	defer root.End()
	t.requests++

	sp := span(ctx, "decode")
	var req service.AnalyzeRequest
	err := json.Unmarshal(body, &req)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = span(ctx, "key")
	key, err := service.NewKey("analyze", req.Source, a.cfg.Compiler, a.cfg.VM, a.cfg.Rules, req.Iterations, req.Prime)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = span(ctx, "cache-lookup")
	v, hit := a.cache.Get(key)
	sp.End()
	t.lookup(hit)

	var resp *service.AnalyzeResponse
	if hit {
		resp = v.(*service.AnalyzeResponse)
	} else {
		resp, err = a.compute(ctx, t, req)
		if err != nil {
			return 0, err
		}
		a.cache.Put(key, resp)
	}
	out := *resp
	out.Cached = hit

	sp = span(ctx, "encode")
	_, err = json.Marshal(out)
	sp.End()
	return resp.Cycles, err
}

// compute runs the pipeline stages of a cache miss.
func (a *analyzeTrace) compute(ctx context.Context, t *tracer, req service.AnalyzeRequest) (*service.AnalyzeResponse, error) {
	vmCfg := a.cfg.VM
	opts := macs.DefaultCompilerOptions()
	if vmCfg.VLMax > 0 && vmCfg.VLMax < opts.VL {
		opts.VL = vmCfg.VLMax
	}

	h0 := t.heap()
	sp := span(ctx, "compile")
	prog, err := macs.Compile(req.Source, opts)
	sp.End()
	t.allocSince("compile", h0)
	if err != nil {
		return nil, err
	}
	h0 = t.heap()
	sp = span(ctx, "verify")
	err = macs.VerifyProgram(prog)
	sp.End()
	t.allocSince("verify", h0)
	if err != nil {
		return nil, err
	}
	h0 = t.heap()
	sp = span(ctx, "bound")
	an, err := macs.BoundCompiled(req.Source, prog, vmCfg.VLMax, vmCfg.Rules)
	sp.End()
	t.allocSince("bound", h0)
	if err != nil {
		return nil, err
	}

	sp = span(ctx, "pool-checkout")
	cpu := a.pool.Get()
	sp.End()
	defer a.pool.Put(cpu)
	st, err := runOn(ctx, t, cpu, prog, primeFunc(req.Prime))
	if err != nil {
		return nil, err
	}

	res := macs.Result{Analysis: an, Stats: st, Program: prog, Iterations: req.Iterations}
	if req.Iterations > 0 {
		res.MeasuredCPL = float64(st.Cycles) / float64(req.Iterations)
	}
	return &service.AnalyzeResponse{
		Tier:        macs.TierExact.String(),
		Bounds:      boundsView(an),
		MeasuredCPL: res.MeasuredCPL,
		Cycles:      st.Cycles,
		Iterations:  res.Iterations,
		Stats:       &st,
		Report:      res.Report(),
		Attribution: st.Attr.Totals(),
	}, nil
}

// runOn loads, primes and runs a program on a checked-out simulator.
func runOn(ctx context.Context, t *tracer, cpu *vm.CPU, prog *macs.Program, prime func(*vm.CPU) error) (vm.Stats, error) {
	sp := span(ctx, "load")
	err := cpu.Load(prog)
	sp.End()
	if err != nil {
		return vm.Stats{}, err
	}
	if prime != nil {
		sp = span(ctx, "prime")
		err = prime(cpu)
		sp.End()
		if err != nil {
			return vm.Stats{}, err
		}
	}
	h0 := t.heap()
	sp = span(ctx, "simulate")
	st, err := cpu.Run()
	sp.End()
	t.allocSince("simulate", h0)
	t.cycles += st.Cycles
	return st, err
}

// exploreTrace replays POST /v1/explore with the engine's public
// building blocks and its own per-machine predictors and pools.
type exploreTrace struct {
	cfg      service.Config
	cache    *service.Cache
	machines map[string]*machineState
}

// machineState is one machine's fast-tier predictor and simulator pool.
type machineState struct {
	pred *fasttier.Predictor
	pool *vm.Pool
}

func newExploreTrace() *exploreTrace {
	cfg := serviceConfig()
	return &exploreTrace{cfg: cfg, cache: service.NewCache(cfg.CacheSize), machines: make(map[string]*machineState)}
}

func (x *exploreTrace) machine(m vm.Machine) *machineState {
	fp := m.Fingerprint()
	if ms, ok := x.machines[fp]; ok {
		return ms
	}
	cfg := x.cfg.VM.WithMachine(m)
	ms := &machineState{pred: fasttier.NewPredictor(calib.FastTierConfig(cfg)), pool: vm.NewPool(cfg)}
	x.machines[fp] = ms
	return ms
}

// effVL is the vector length a machine's program is compiled at.
func (x *exploreTrace) effVL(m vm.Machine) int {
	switch {
	case m.VLMax <= 0:
		return x.cfg.Compiler.VL
	case m.VLMax > isa.VLMax:
		return isa.VLMax
	}
	return m.VLMax
}

// sweep replays one sweep and returns its summary answer.
func (x *exploreTrace) sweep(t *tracer, body []byte) (*service.ExploreResponse, error) {
	ctx, root := obs.Start(t.ctx, "explore")
	defer root.End()
	t.requests++

	sp := span(ctx, "decode")
	var req service.ExploreRequest
	err := json.Unmarshal(body, &req)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = span(ctx, "key")
	key, err := service.NewKey("explore", req.Source, x.cfg.Compiler, x.cfg.VM, x.cfg.Rules,
		req.Iterations, req.Prime, req.Grid, req.TopFrac, req.MinTop)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = span(ctx, "cache-lookup")
	v, hit := x.cache.Get(key)
	sp.End()
	t.lookup(hit)

	var resp *service.ExploreResponse
	if hit {
		resp = v.(*service.ExploreResponse)
	} else {
		resp, err = x.compute(ctx, t, req)
		if err != nil {
			return nil, err
		}
		x.cache.Put(key, resp)
		t.swept += resp.Swept
		t.simPts += resp.Simulated
	}
	out := *resp
	out.Cached = hit

	sp = span(ctx, "encode")
	_, err = json.Marshal(out)
	sp.End()
	return resp, err
}

// compute runs the two-stage sweep: compile, verify and bound once per
// distinct vector length, predict every point, simulate the top ones.
func (x *exploreTrace) compute(ctx context.Context, t *tracer, req service.ExploreRequest) (*service.ExploreResponse, error) {
	grid := req.Grid
	if grid.Base == (vm.Machine{}) {
		grid.Base = x.cfg.VM.Machine
	}
	points, err := grid.Points()
	if err != nil {
		return nil, err
	}
	progs := make(map[int]*macs.Program)
	bounds := make(map[int]explore.Bounds)
	for _, m := range points {
		vl := x.effVL(m)
		if _, ok := progs[vl]; ok {
			continue
		}
		opts := x.cfg.Compiler
		opts.VL = vl
		h0 := t.heap()
		sp := span(ctx, "compile")
		prog, err := macs.Compile(req.Source, opts)
		sp.End()
		t.allocSince("compile", h0)
		if err != nil {
			return nil, err
		}
		h0 = t.heap()
		sp = span(ctx, "verify")
		err = macs.VerifyProgram(prog)
		sp.End()
		t.allocSince("verify", h0)
		if err != nil {
			return nil, err
		}
		h0 = t.heap()
		sp = span(ctx, "bound")
		a, err := macs.BoundCompiled(req.Source, prog, vl, m.Rules)
		sp.End()
		t.allocSince("bound", h0)
		if err != nil {
			return nil, err
		}
		progs[vl] = prog
		bounds[vl] = explore.Bounds{TMA: a.TMA, TMAC: a.TMAC, TMACS: a.MACS.CPL, TCP: a.TCP, Chimes: len(a.MACS.Chimes)}
	}

	ints := fastInts(req.Prime)
	pts := make([]explore.Point, len(points))
	for i, m := range points {
		ms := x.machine(m)
		sp := span(ctx, "predict")
		pred, err := ms.pred.Predict(progs[x.effVL(m)], req.Iterations, ints)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = explore.Point{Index: i, Machine: m, Fingerprint: m.Fingerprint(), Bounds: bounds[x.effVL(m)],
			PredictedCycles: pred.Cycles, PredictedCPL: pred.CPL}
	}

	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		if pa.PredictedCycles != pb.PredictedCycles {
			return pa.PredictedCycles < pb.PredictedCycles
		}
		return pa.Index < pb.Index
	})
	topFrac := req.TopFrac
	if topFrac <= 0 {
		topFrac = explore.DefaultTopFrac
	}
	top := int(math.Ceil(topFrac * float64(len(pts))))
	top = max(top, req.MinTop, 1)
	top = min(top, len(pts))
	survivors := order[:top]

	prime := primeFunc(req.Prime)
	for _, i := range survivors {
		p := &pts[i]
		ms := x.machine(p.Machine)
		sp := span(ctx, "pool-checkout")
		cpu := ms.pool.Get()
		sp.End()
		st, err := runOn(ctx, t, cpu, progs[x.effVL(p.Machine)], prime)
		ms.pool.Put(cpu)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		p.Simulated = true
		p.Cycles = st.Cycles
		p.Stats = &st
		if req.Iterations > 0 {
			p.CPL = float64(st.Cycles) / float64(req.Iterations)
		}
	}
	sort.Slice(survivors, func(a, b int) bool {
		pa, pb := pts[survivors[a]], pts[survivors[b]]
		if pa.Cycles != pb.Cycles {
			return pa.Cycles < pb.Cycles
		}
		return pa.Index < pb.Index
	})
	resp := &service.ExploreResponse{Name: req.Name, Swept: len(pts), Simulated: top, Pruned: len(pts) - top}
	for rank, i := range survivors {
		pts[i].Rank = rank + 1
		resp.Ranked = append(resp.Ranked, pts[i])
	}
	return resp, nil
}
