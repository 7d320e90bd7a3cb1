// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (calibrated instruction timings), Table 2 (LFK
// workloads), Table 3 (component bounds), Table 4 (bounds vs measured
// CPF with harmonic-mean MFLOPS), Table 5 (A/X measurements), Figure 2
// (chaining/tailgating timeline) and Figure 3 (bounds vs single- and
// multi-process measurements).
package experiments

import (
	"context"
	"fmt"

	"macs/internal/asm"
	"macs/internal/ax"
	"macs/internal/calib"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/depgraph"
	"macs/internal/lfk"
	"macs/internal/mem"
	"macs/internal/par"
	"macs/internal/vm"
)

// Config selects the machine and compiler configuration for a run.
type Config struct {
	VM       vm.Config
	Compiler compiler.Options
	// MultiSlowdown is the memory slowdown applied for the Figure 3
	// multi-process bars; <=0 derives it from the bank-arbiter contention
	// simulation of four different programs.
	MultiSlowdown float64
	// Parallel is the sweep fan-out: how many kernels RunAll and the
	// table generators process concurrently, each on its own simulator.
	// 0 or 1 runs sequentially (the historical behavior); n > 1 uses n
	// workers; negative uses one worker per core.
	Parallel int
}

// workers maps the Parallel knob onto a worker count for par.ForEachCtx.
func (c Config) workers() int {
	if c.Parallel == 0 {
		return 1
	}
	return par.Workers(c.Parallel)
}

// Default returns the standard experiment configuration.
func Default() Config {
	return Config{
		VM:       vm.DefaultConfig(),
		Compiler: compiler.DefaultOptions(),
	}
}

// KernelResult bundles everything measured and modeled for one kernel.
type KernelResult struct {
	Kernel *lfk.Kernel
	// Analysis is the MA/MAC/MACS hierarchy at VL = 128.
	Analysis core.Analysis
	// Cycles is the measured single-process run time; AX carries the
	// A-process and X-process run times.
	Cycles int64
	AX     ax.Measurement
	// Stats is the full simulator outcome of the single-process run,
	// including the stall-attribution ledger (Stats.Attr).
	Stats vm.Stats
	// Validated records that the run's numerical output matched the Go
	// reference implementation.
	Validated bool
}

// CPLs returns (t_MA, t_MAC, t_MACS, t_p) in cycles per loop iteration.
func (r KernelResult) CPLs() (tma, tmac, tmacs, tp float64) {
	return r.Analysis.TMA, r.Analysis.TMAC, r.Analysis.MACS.CPL,
		r.Kernel.CPL(r.Cycles)
}

// CPFs returns the same hierarchy in cycles per flop.
func (r KernelResult) CPFs() (tma, tmac, tmacs, tp float64) {
	f := float64(r.Kernel.FlopsPerIteration())
	tma, tmac, tmacs, tp = r.CPLs()
	return tma / f, tmac / f, tmacs / f, tp / f
}

// RunKernel compiles, analyzes, measures and validates one kernel.
func RunKernel(k *lfk.Kernel, cfg Config) (KernelResult, error) {
	res := KernelResult{Kernel: k}
	c, err := lfk.Compile(k, cfg.Compiler)
	if err != nil {
		return res, err
	}
	loop, ok := asm.InnerVectorLoop(c.Program)
	if !ok {
		return res, fmt.Errorf("experiments: lfk%d has no vector loop", k.ID)
	}
	res.Analysis = core.Analyze(k.Paper.MA, loop.Body, cfg.VM.VLMax, cfg.VM.Rules)
	if cp, _, ok := depgraph.Analyze(c.Program, cfg.VM.VLMax, depgraph.DefaultParams()); ok {
		res.Analysis.TCP = cp.CPL
	}
	st, cpu, err := c.Run(cfg.VM)
	if err != nil {
		return res, err
	}
	if err := c.Validate(cpu); err != nil {
		return res, err
	}
	res.Validated = true
	res.Cycles = st.Cycles
	res.Stats = st
	res.AX, err = ax.Measure(c.Program, cfg.VM, k.Inputs.Prime())
	if err != nil {
		return res, err
	}
	return res, nil
}

// RunAll measures every kernel of the case study. With cfg.Parallel > 1
// kernels run concurrently, one simulator per goroutine; results are
// ordered by kernel regardless of fan-out.
func RunAll(cfg Config) ([]KernelResult, error) {
	ks := lfk.All()
	out := make([]KernelResult, len(ks))
	err := par.ForEachCtx(context.Background(), cfg.workers(), len(ks), func(i int) error {
		r, err := RunKernel(ks[i], cfg)
		if err != nil {
			return fmt.Errorf("lfk%d: %w", ks[i].ID, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table1 regenerates the vector instruction timing table from calibration
// loops run on the simulated machine, fanning out per cfg.Parallel.
func Table1(cfg Config) ([]calib.Result, error) {
	return calib.CalibrateAllN(cfg.VM, cfg.workers())
}

// Table2Row is one kernel's MA and MAC workload.
type Table2Row struct {
	ID      int
	MA, MAC core.Workload
}

// Table2 regenerates the LFK workload table.
func Table2(cfg Config) ([]Table2Row, error) {
	ks := lfk.All()
	rows := make([]Table2Row, len(ks))
	err := par.ForEachCtx(context.Background(), cfg.workers(), len(ks), func(i int) error {
		k := ks[i]
		c, err := lfk.Compile(k, cfg.Compiler)
		if err != nil {
			return err
		}
		loop, ok := asm.InnerVectorLoop(c.Program)
		if !ok {
			return fmt.Errorf("lfk%d: no vector loop", k.ID)
		}
		ma, err := compiler.MAWorkload(k.Source)
		if err != nil {
			return err
		}
		rows[i] = Table2Row{
			ID:  k.ID,
			MA:  ma,
			MAC: core.WorkloadFromAssembly(loop.Body),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Row is one kernel's component and full bounds in CPL.
type Table3Row struct {
	ID               int
	TM, TMp, TMACSm  float64 // memory: MA, MAC, reduced MACS
	TF, TFp, TMACSf  float64 // floating point: MA, MAC, reduced MACS
	TMA, TMAC, TMACS float64
}

// Table3 regenerates the performance-bounds table.
func Table3(cfg Config) ([]Table3Row, error) {
	ks := lfk.All()
	rows := make([]Table3Row, len(ks))
	err := par.ForEachCtx(context.Background(), cfg.workers(), len(ks), func(i int) error {
		k := ks[i]
		c, err := lfk.Compile(k, cfg.Compiler)
		if err != nil {
			return err
		}
		loop, _ := asm.InnerVectorLoop(c.Program)
		a := core.Analyze(k.Paper.MA, loop.Body, cfg.VM.VLMax, cfg.VM.Rules)
		rows[i] = Table3Row{
			ID:     k.ID,
			TM:     a.MA.TM(),
			TMp:    a.MAC.TM(),
			TMACSm: a.MACSM.CPL,
			TF:     a.MA.TF(),
			TFp:    a.MAC.TF(),
			TMACSf: a.MACSF.CPL,
			TMA:    a.TMA,
			TMAC:   a.TMAC,
			TMACS:  a.MACS.CPL,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table4Row compares the bounds hierarchy with measured performance for
// one kernel, in cycles per flop.
type Table4Row struct {
	ID                     int
	TMA, TMAC, TMACS, TP   float64
	PctMA, PctMAC, PctMACS float64 // bound / measured
	Paper                  lfk.PaperRow
}

// Table4 is the full comparison with averages and harmonic-mean MFLOPS.
type Table4 struct {
	Rows   []Table4Row
	Avg    [4]float64 // average CPF: MA, MAC, MACS, measured
	MFLOPS [4]float64
}

// RunTable4 regenerates the bounds-vs-measured comparison.
func RunTable4(cfg Config) (Table4, error) {
	results, err := RunAll(cfg)
	if err != nil {
		return Table4{}, err
	}
	return table4From(results), nil
}

func table4From(results []KernelResult) Table4 {
	var t Table4
	var sums [4]float64
	for _, r := range results {
		tma, tmac, tmacs, tp := r.CPFs()
		row := Table4Row{
			ID: r.Kernel.ID, TMA: tma, TMAC: tmac, TMACS: tmacs, TP: tp,
			PctMA: tma / tp, PctMAC: tmac / tp, PctMACS: tmacs / tp,
			Paper: r.Kernel.Paper,
		}
		t.Rows = append(t.Rows, row)
		for i, v := range []float64{tma, tmac, tmacs, tp} {
			sums[i] += v
		}
	}
	n := float64(len(results))
	for i := range sums {
		t.Avg[i] = sums[i] / n
		t.MFLOPS[i] = core.HarmonicMeanMFLOPS([]float64{t.Avg[i]})
	}
	return t
}

// Table5Row is one kernel's MACS bounds and measurements in CPL:
// (t_p, t_MACS, t_x, t_MACS^f, t_a, t_MACS^m), the paper's Table 5.
type Table5Row struct {
	ID         int
	TP, TMACS  float64
	TX, TMACSf float64
	TA, TMACSm float64
}

// RunTable5 regenerates the A/X measurement table.
func RunTable5(cfg Config) ([]Table5Row, error) {
	results, err := RunAll(cfg)
	if err != nil {
		return nil, err
	}
	return table5From(results), nil
}

func table5From(results []KernelResult) []Table5Row {
	var rows []Table5Row
	for _, r := range results {
		k := r.Kernel
		rows = append(rows, Table5Row{
			ID:     k.ID,
			TP:     k.CPL(r.AX.TP),
			TMACS:  r.Analysis.MACS.CPL,
			TX:     k.CPL(r.AX.TX),
			TMACSf: r.Analysis.MACSF.CPL,
			TA:     k.CPL(r.AX.TA),
			TMACSm: r.Analysis.MACSM.CPL,
		})
	}
	return rows
}

// Hierarchy is the Figure 1 view for one kernel: every level of the
// bounds-and-measurements hierarchy in CPL, plus the dependence
// critical-path bound t_CP (zero when no per-element claim holds).
type Hierarchy struct {
	ID               int
	TMA, TMAC, TMACS float64
	TCP              float64
	TMACSf, TMACSm   float64
	TX, TA, TP       float64
}

// Figure1 renders the hierarchy data for every kernel.
func Figure1(cfg Config) ([]Hierarchy, error) {
	results, err := RunAll(cfg)
	if err != nil {
		return nil, err
	}
	var out []Hierarchy
	for _, r := range results {
		k := r.Kernel
		out = append(out, Hierarchy{
			ID:     k.ID,
			TMA:    r.Analysis.TMA,
			TMAC:   r.Analysis.TMAC,
			TMACS:  r.Analysis.MACS.CPL,
			TCP:    r.Analysis.TCP,
			TMACSf: r.Analysis.MACSF.CPL,
			TMACSm: r.Analysis.MACSM.CPL,
			TX:     k.CPL(r.AX.TX),
			TA:     k.CPL(r.AX.TA),
			TP:     k.CPL(r.AX.TP),
		})
	}
	return out, nil
}

// Figure2 reproduces the chaining walkthrough: the chained ld/add/mul
// chime (162 cycles in the paper), the unchained equivalent (422), the
// steady-state chime cost (VL + bubbles), and the instruction timeline.
type Figure2 struct {
	ChainedCycles   int64
	UnchainedCycles int64
	SteadyChime     float64
	Events          []vm.TraceEvent
}

// RunFigure2 measures the Figure 2 scenario on the simulator.
func RunFigure2(cfg Config) (Figure2, error) {
	src := `
.data a 2048
	mov #8,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
	add.d v0,v1,v2
	mul.d v2,v3,v5
`
	var fig Figure2
	run := func(c vm.Config) (int64, []vm.TraceEvent, error) {
		p, err := asm.Parse(src)
		if err != nil {
			return 0, nil, err
		}
		cpu := vm.New(c)
		if err := cpu.Load(p); err != nil {
			return 0, nil, err
		}
		st, err := cpu.Run()
		if err != nil {
			return 0, nil, err
		}
		return st.Cycles, cpu.Trace(), nil
	}
	c := cfg.VM
	c.RefreshStalls = false
	c.Trace = true
	var err error
	if fig.ChainedCycles, fig.Events, err = run(c); err != nil {
		return fig, err
	}
	c2 := c
	c2.Rules.Chaining = false
	if fig.UnchainedCycles, _, err = run(c2); err != nil {
		return fig, err
	}
	fig.SteadyChime, err = calib.ChimeTime([]string{
		"ld.l arr(a0),v2", "mul.d v2,v1,v0", "add.d v0,v3,v5",
	}, c)
	return fig, err
}

// Figure3Row holds one kernel's bars: the bounds and the measured CPF on
// an idle machine and on a loaded machine (multi-process contention).
type Figure3Row struct {
	ID               int
	TMA, TMAC, TMACS float64
	Single, Multi    float64
}

// RunFigure3 regenerates the Figure 3 data. The multi-process bars rerun
// every kernel with the memory port slowed by the contention factor
// obtained from the four-CPU bank-arbiter simulation (paper §4.2: one
// access per 56-64 ns instead of 40 ns).
func RunFigure3(cfg Config) ([]Figure3Row, float64, error) {
	slow := cfg.MultiSlowdown
	if slow <= 0 {
		slow = mem.ContentionSlowdown(mem.DefaultConfig(), 4, true, 4000)
	}
	single, err := RunAll(cfg)
	if err != nil {
		return nil, 0, err
	}
	loaded := cfg
	loaded.VM.MemSlowdown = slow
	multi, err := RunAll(loaded)
	if err != nil {
		return nil, 0, err
	}
	var rows []Figure3Row
	for i, r := range single {
		tma, tmac, tmacs, tp := r.CPFs()
		_, _, _, tpm := multi[i].CPFs()
		rows = append(rows, Figure3Row{
			ID: r.Kernel.ID, TMA: tma, TMAC: tmac, TMACS: tmacs,
			Single: tp, Multi: tpm,
		})
	}
	return rows, slow, nil
}
