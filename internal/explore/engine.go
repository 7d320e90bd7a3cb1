package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"macs"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/fasttier"
	"macs/internal/ftn"
	"macs/internal/par"
	"macs/internal/vm"
)

// DefaultTopFrac is the fraction of the grid the exact simulator runs on
// when Options.TopFrac is zero: 5% of the points, the Concorde-style
// two-stage recipe's default.
const DefaultTopFrac = 0.05

// Options configures an Engine.
type Options struct {
	// Run is the run-bound configuration template (memory size,
	// budgets); its Machine field is replaced by each grid point, and its
	// tracing is switched off, because a sweep reads no timing events.
	// The zero value takes vm.DefaultConfig.
	Run vm.Config
	// TopFrac is the fraction of grid points promoted to exact
	// simulation, ranked by fast-tier predicted cycles; 0 takes
	// DefaultTopFrac, and at least MinTop points always survive.
	TopFrac float64
	// MinTop floors the survivor count; 0 takes 1.
	MinTop int
	// Workers bounds sweep concurrency; <1 uses all cores.
	Workers int
}

// Engine sweeps one grid over kernels. Create with New; an Engine may
// run many Sweeps (one per kernel) and is safe for concurrent use.
type Engine struct {
	opts   Options
	points []vm.Machine
}

// New validates the grid, materializes its points and builds the engine.
func New(grid Grid, opts Options) (*Engine, error) {
	points, err := grid.Points()
	if err != nil {
		return nil, err
	}
	if opts.Run == (vm.Config{}) {
		opts.Run = vm.DefaultConfig()
	}
	opts.Run.Trace, opts.Run.TraceRing = false, 0
	if opts.TopFrac <= 0 {
		opts.TopFrac = DefaultTopFrac
	}
	if opts.TopFrac > 1 {
		opts.TopFrac = 1
	}
	if opts.MinTop < 1 {
		opts.MinTop = 1
	}
	opts.Workers = par.Workers(opts.Workers)
	return &Engine{opts: opts, points: points}, nil
}

// Points returns the number of machine points in the engine's grid.
func (e *Engine) Points() int { return len(e.points) }

// Bounds is the analytical bounds hierarchy of one grid point: the MACS
// family plus the dependence critical path, in CPL.
type Bounds struct {
	TMA    float64 `json:"t_ma"`
	TMAC   float64 `json:"t_mac"`
	TMACS  float64 `json:"t_macs"`
	TCP    float64 `json:"t_cp"`
	Chimes int     `json:"chimes"`
}

// Point is one evaluated grid point. Every point carries the analytical
// bounds and the fast-tier score; only simulated survivors carry exact
// cycles, CPL and the per-lane stall attribution.
type Point struct {
	// Index is the point's position in grid order.
	Index int `json:"index"`
	// Machine is the point's hardware description; Fingerprint its
	// canonical hash.
	Machine     vm.Machine `json:"machine"`
	Fingerprint string     `json:"fingerprint"`
	// Bounds is the MACS hierarchy under this machine's VL and rules.
	Bounds Bounds `json:"bounds"`
	// PredictedCycles and PredictedCPL are the stage-1 fast-tier score.
	// In a data-dependent fallback sweep both are zero.
	PredictedCycles int64   `json:"predicted_cycles"`
	PredictedCPL    float64 `json:"predicted_cpl"`
	// Simulated marks a stage-2 survivor; Rank is its 1-based position
	// among survivors by measured cycles (0 for pruned points).
	Simulated bool `json:"simulated"`
	Rank      int  `json:"rank,omitempty"`
	// Cycles, CPL and Stats are the exact measurement (survivors only).
	Cycles int64     `json:"cycles,omitempty"`
	CPL    float64   `json:"cpl,omitempty"`
	Stats  *vm.Stats `json:"stats,omitempty"`
}

// Score returns the cycles the sweep ranked the point by: measured when
// simulated, predicted otherwise.
func (p Point) Score() int64 {
	if p.Simulated {
		return p.Cycles
	}
	return p.PredictedCycles
}

// Request is one kernel to sweep the grid over.
type Request struct {
	// Name labels the sweep (e.g. "lfk7"); informational.
	Name string
	// Source is the kernel's Fortran-subset source, compiled once.
	Source string
	// Iterations converts cycles to CPL; 0 skips the conversion.
	Iterations int64
	// Inputs are the kernel's inputs: the predictor reads their integers
	// (trip counts and layout), and each survivor's simulator is primed
	// with all of them, exactly as in macs.AnalyzeSourceVM.
	Inputs macs.Inputs
	// Observe, when non-nil, is called once per simulated survivor as its
	// measurement completes (serialized, completion order, before ranks
	// are assigned) — the serving layer streams these.
	Observe func(Point)
}

// Sweep is the outcome of sweeping the grid over one kernel.
type Sweep struct {
	Name string `json:"name,omitempty"`
	// Points holds every grid point, in grid order.
	Points []Point `json:"points"`
	// Swept, Pruned and Simulated count the two-stage economics:
	// Swept = len(Points), Simulated survivors ran exactly,
	// Pruned = Swept - Simulated were answered by the fast tier alone.
	Swept     int `json:"swept"`
	Pruned    int `json:"pruned"`
	Simulated int `json:"simulated"`
	// Fallback reports that the fast tier rejected the program as
	// data-dependent and every point was simulated (no pruning).
	Fallback bool `json:"fallback,omitempty"`
}

// Ranked returns the sweep's points ordered best-first: simulated
// survivors by measured cycles, then pruned points by predicted cycles,
// index breaking ties.
func (s *Sweep) Ranked() []Point {
	out := make([]Point, len(s.Points))
	copy(out, s.Points)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Simulated != out[j].Simulated {
			return out[i].Simulated
		}
		if a, b := out[i].Score(), out[j].Score(); a != b {
			return a < b
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Best returns the winning point (rank 1).
func (s *Sweep) Best() Point {
	for _, p := range s.Points {
		if p.Rank == 1 {
			return p
		}
	}
	return Point{}
}

// boundsKey memoizes per-machine analytical bounds: the hierarchy
// depends only on the vector length and the chime rules, so a grid
// varying memory geometry over thousands of points computes it once.
type boundsKey struct {
	vl    int
	rules core.Rules
}

// Sweep evaluates every grid point for one kernel: parse once, compile
// once per distinct vector length, score every point with the fast tier,
// simulate the top fraction. It is cancellable through ctx — once ctx
// fires, no new point is launched and the sweep returns ctx's error.
func (e *Engine) Sweep(ctx context.Context, req Request) (*Sweep, error) {
	// Code generation leaves the syntax tree untouched (compiler's
	// TestCompileLeavesASTUntouched), so every compile and every bound
	// below reads this one tree.
	parsed, err := ftn.Parse(req.Source)
	if err != nil {
		return nil, err
	}
	// Each point's program is compiled with the facade's options for its
	// machine (macs.CompilerOptionsFor), then verified and bounded at its
	// compile vector length (vm.Machine.CompileVL), as the facade's are.
	// A grid holds at most a handful of distinct lengths, so compilation
	// stays shared across every other axis.
	progOf := make(map[int]*macs.Program)
	for _, m := range e.points {
		vl := m.CompileVL()
		if _, ok := progOf[vl]; ok {
			continue
		}
		prog, err := compiler.CompileProgram(parsed, macs.CompilerOptionsFor(m))
		if err != nil {
			return nil, err
		}
		if err := macs.VerifyProgram(prog); err != nil {
			return nil, err
		}
		progOf[vl] = prog
	}
	// Every compile declares the same variables, so the inputs are
	// checked once, before any point is predicted or simulated.
	if err := req.Inputs.Check(progOf[e.points[0].CompileVL()]); err != nil {
		return nil, err
	}
	ints := req.Inputs.SymbolInts()

	n := len(e.points)
	sw := &Sweep{Name: req.Name, Points: make([]Point, n), Swept: n}

	// Analytical bounds, memoized by the (VL, rules) combinations the
	// grid actually contains — typically one, at most a handful.
	boundsOf := make(map[boundsKey]Bounds)
	for _, m := range e.points {
		k := boundsKey{m.CompileVL(), m.Rules}
		if _, ok := boundsOf[k]; ok {
			continue
		}
		a, err := macs.BoundParsed(parsed, progOf[k.vl], k.vl, m.Rules)
		if err != nil {
			return nil, err
		}
		boundsOf[k] = Bounds{
			TMA:    a.TMA,
			TMAC:   a.TMAC,
			TMACS:  a.MACS.CPL,
			TCP:    a.TCP,
			Chimes: len(a.MACS.Chimes),
		}
	}

	// Stage 1: fast-tier score for every point, in parallel, each on a
	// fresh predictor. Data dependence is a property of the program, not
	// of the machine; the first rejection flips the whole sweep into
	// exhaustive simulation.
	var dataDependent sync.Once
	fallback := false
	err = par.ForEachCtx(ctx, e.opts.Workers, n, func(i int) error {
		m := e.points[i]
		p := Point{
			Index:       i,
			Machine:     m,
			Fingerprint: m.Fingerprint(),
			Bounds:      boundsOf[boundsKey{m.CompileVL(), m.Rules}],
		}
		pred, err := fasttier.NewPredictor(e.opts.Run.WithMachine(m)).Predict(progOf[m.CompileVL()], req.Iterations, ints)
		switch {
		case errors.Is(err, fasttier.ErrDataDependent):
			dataDependent.Do(func() { fallback = true })
		case err != nil:
			return fmt.Errorf("explore: point %d: %w", i, err)
		default:
			p.PredictedCycles = pred.Cycles
			p.PredictedCPL = pred.CPL
		}
		sw.Points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	sw.Fallback = fallback

	// Stage 2: exact simulation of the survivors. Without fallback the
	// survivor set is the top TopFrac of points by predicted cycles
	// (fewer predicted cycles = faster machine = better); under fallback
	// it is everything.
	survivors := make([]int, 0, n)
	if fallback {
		for i := 0; i < n; i++ {
			survivors = append(survivors, i)
		}
	} else {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := sw.Points[order[a]], sw.Points[order[b]]
			if pa.PredictedCycles != pb.PredictedCycles {
				return pa.PredictedCycles < pb.PredictedCycles
			}
			return pa.Index < pb.Index
		})
		top := int(math.Ceil(e.opts.TopFrac * float64(n)))
		if top < e.opts.MinTop {
			top = e.opts.MinTop
		}
		if top > n {
			top = n
		}
		survivors = append(survivors, order[:top]...)
	}
	sw.Simulated = len(survivors)
	sw.Pruned = n - sw.Simulated

	var observeMu sync.Mutex
	err = par.ForEachCtx(ctx, e.opts.Workers, len(survivors), func(j int) error {
		i := survivors[j]
		p := &sw.Points[i]
		cpu := vm.New(e.opts.Run.WithMachine(p.Machine))
		if err := cpu.Load(progOf[p.Machine.CompileVL()]); err != nil {
			return fmt.Errorf("explore: point %d: %w", i, err)
		}
		if err := req.Inputs.Write(cpu); err != nil {
			return fmt.Errorf("explore: point %d: %w", i, err)
		}
		st, err := cpu.Run()
		if err != nil {
			return fmt.Errorf("explore: point %d: %w", i, err)
		}
		p.Simulated = true
		p.Cycles = st.Cycles
		p.Stats = &st
		if req.Iterations > 0 {
			p.CPL = float64(st.Cycles) / float64(req.Iterations)
		}
		if req.Observe != nil {
			observeMu.Lock()
			req.Observe(*p)
			observeMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Rank the survivors by measured cycles.
	sort.Slice(survivors, func(a, b int) bool {
		pa, pb := sw.Points[survivors[a]], sw.Points[survivors[b]]
		if pa.Cycles != pb.Cycles {
			return pa.Cycles < pb.Cycles
		}
		return pa.Index < pb.Index
	})
	for rank, i := range survivors {
		sw.Points[i].Rank = rank + 1
	}
	return sw, nil
}
