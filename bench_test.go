// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each benchmark reports the headline quantity of its table
// or figure as a custom metric, so `go test -bench=.` reproduces the
// paper's numbers in one run:
//
//	BenchmarkTable1Calibration   ld Z and B fit (Table 1)
//	BenchmarkTable2Workload      total MAC-MA load delta (Table 2)
//	BenchmarkTable3Bounds        average t_MACS CPL (Table 3)
//	BenchmarkTable4Comparison    harmonic-mean MFLOPS (Table 4)
//	BenchmarkTable5AX            average t_a and t_x CPL (Table 5)
//	BenchmarkFigure2Chaining     chained/unchained chime cycles
//	BenchmarkFigure3Contention   multi-process slowdown
//	BenchmarkAblation*           measured average CPL under each ablation
//	BenchmarkLFK*                per-kernel simulation rate
//	BenchmarkFastTierCold        per-kernel fast-tier prediction time
//	BenchmarkExplore             per-kernel grid-sweep rate
package macs_test

import (
	"context"
	"fmt"
	"testing"

	"macs"
	"macs/internal/asm"
	"macs/internal/calib"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/experiments"
	"macs/internal/explore"
	"macs/internal/fasttier"
	"macs/internal/isa"
	"macs/internal/lfk"
	"macs/internal/mem"
	"macs/internal/vm"
)

func BenchmarkTable1Calibration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := calib.CalibrateAll(vm.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				if r.Op == isa.OpLd {
					b.ReportMetric(r.Fit.Z, "ld-Z")
					b.ReportMetric(float64(r.Fit.B), "ld-B")
				}
			}
		}
	}
}

func BenchmarkTable2Workload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			delta := 0
			for _, r := range rows {
				delta += r.MAC.Loads - r.MA.Loads
			}
			b.ReportMetric(float64(delta), "extra-loads")
		}
	}
}

func BenchmarkTable3Bounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sum float64
			for _, r := range rows {
				sum += r.TMACS
			}
			b.ReportMetric(sum/float64(len(rows)), "avg-tMACS-CPL")
		}
	}
}

func BenchmarkTable4Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t4, err := experiments.RunTable4(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(t4.MFLOPS[3], "measured-MFLOPS")
			b.ReportMetric(t4.MFLOPS[2], "MACS-MFLOPS")
			b.ReportMetric(t4.MFLOPS[0], "MA-MFLOPS")
		}
	}
}

func BenchmarkTable5AX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable5(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var ta, tx float64
			for _, r := range rows {
				ta += r.TA
				tx += r.TX
			}
			n := float64(len(rows))
			b.ReportMetric(ta/n, "avg-ta-CPL")
			b.ReportMetric(tx/n, "avg-tx-CPL")
		}
	}
}

func BenchmarkFigure1Hierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(experiments.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Chaining(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure2(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(fig.ChainedCycles), "chained-cycles")
			b.ReportMetric(float64(fig.UnchainedCycles), "unchained-cycles")
			b.ReportMetric(fig.SteadyChime, "steady-chime-cycles")
		}
	}
}

func BenchmarkFigure3Contention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, slow, err := experiments.RunFigure3(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(slow, "mem-slowdown")
			var ratio float64
			for _, r := range rows {
				ratio += r.Multi / r.Single
			}
			b.ReportMetric(ratio/float64(len(rows)), "avg-degradation")
		}
	}
}

// averageMeasuredCPL runs the whole suite under a configuration and
// returns the mean measured CPL (ablation metric).
func averageMeasuredCPL(b *testing.B, cfg experiments.Config) float64 {
	b.Helper()
	results, err := experiments.RunAll(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	for _, r := range results {
		sum += r.Kernel.CPL(r.Cycles)
	}
	return sum / float64(len(results))
}

func benchmarkAblation(b *testing.B, mutate func(*experiments.Config)) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Default()
		mutate(&cfg)
		cpl := averageMeasuredCPL(b, cfg)
		if i == 0 {
			b.ReportMetric(cpl, "avg-CPL")
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) {})
}

func BenchmarkAblationNoChaining(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) { cfg.VM.Rules.Chaining = false })
}

func BenchmarkAblationNoBubbles(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) { cfg.VM.Rules.Bubbles = false })
}

func BenchmarkAblationNoRefresh(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) {
		cfg.VM.RefreshStalls = false
		cfg.VM.Rules.Refresh = false
	})
}

func BenchmarkAblationNoPairRule(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) { cfg.VM.Rules.PairRule = false })
}

func BenchmarkAblationNoSplitRule(b *testing.B) {
	b.ReportAllocs()
	benchmarkAblation(b, func(cfg *experiments.Config) { cfg.VM.Rules.SplitRule = false })
}

// BenchmarkAblationScalarBaseline compiles every kernel with
// vectorization disabled: the scalar machine the VP is compared against.
func BenchmarkAblationScalarBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := compiler.DefaultOptions()
		opts.ForceScalar = true
		var sum float64
		for _, k := range lfk.All() {
			c, err := lfk.Compile(k, opts)
			if err != nil {
				b.Fatal(err)
			}
			st, _, err := c.Run(vm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			sum += k.CPL(st.Cycles)
		}
		if i == 0 {
			b.ReportMetric(sum/10, "avg-CPL")
		}
	}
}

// BenchmarkLFK measures how fast the simulator itself runs, priming
// included, on a fresh simulator per run. It reports the simulation rate
// in simulated cycles per wall-clock second; the benchgate regression
// tool holds each kernel's allocations per run to the committed baseline.
func BenchmarkLFK(b *testing.B) {
	cfg := vm.DefaultConfig()
	for _, k := range lfk.All() {
		k := k
		b.Run(fmt.Sprintf("lfk%d", k.ID), func(b *testing.B) {
			b.ReportAllocs()
			c, err := lfk.Compile(k, compiler.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var cycles, total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, _, err := c.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
				total += st.Cycles
			}
			b.StopTimer()
			b.ReportMetric(k.CPL(cycles), "CPL")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(total)/secs, "cycles/sec")
			}
		})
	}
}

// BenchmarkFastTierCold measures the fast tier's cost per kernel: every
// prediction steps the program through the timing model from scratch,
// on a fresh interpreter, so it costs about one simulation. Compile is
// outside the timer like BenchmarkLFK; the benchgate regression tool
// holds each kernel's allocations per prediction to the committed
// baseline.
func BenchmarkFastTierCold(b *testing.B) {
	cfg := vm.DefaultConfig()
	for _, k := range lfk.All() {
		k := k
		b.Run(fmt.Sprintf("lfk%d", k.ID), func(b *testing.B) {
			b.ReportAllocs()
			c, err := lfk.Compile(k, compiler.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			ints := k.SymbolInts()
			pred := fasttier.NewPredictor(cfg)
			var p fasttier.Prediction
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err = pred.Predict(c.Program, int64(k.Elements), ints)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(p.CPL, "predicted-CPL")
		})
	}
}

// BenchmarkAnalyzeSourceVM measures the service's cold path — compile,
// verify, bound, simulate on a fresh simulator — on LFK1 source primed
// with its paper inputs (N = 1001), so the run streams the kernel's
// vectors. Outside the timer it checks once that the run simulates the
// cycles lfk.Compiled.Run does.
func BenchmarkAnalyzeSourceVM(b *testing.B) {
	k := lfk.All()[0]
	cfg := macs.DefaultVMConfig()
	prime := k.Inputs.Prime()
	c, err := lfk.Compile(k, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	want, _, err := c.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, prime)
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.Cycles != want.Cycles || res.Stats.VectorElems == 0 {
		b.Fatalf("LFK1 analysis simulated %d cycles (%d vector elements), want lfk.Compiled.Run's %d",
			res.Stats.Cycles, res.Stats.VectorElems, want.Cycles)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, prime); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChimePartitioner measures the bounds model itself (pure
// arithmetic, no simulation).
func BenchmarkChimePartitioner(b *testing.B) {
	b.ReportAllocs()
	k, err := lfk.ByID(8)
	if err != nil {
		b.Fatal(err)
	}
	c, err := lfk.Compile(k, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	loop, ok := asmInnerLoop(c)
	if !ok {
		b.Fatal("no loop")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MACSBound(loop, 128, core.DefaultRules())
		if res.CPL == 0 {
			b.Fatal("zero bound")
		}
	}
}

// BenchmarkContentionArbiter measures the 4-port bank arbiter.
func BenchmarkContentionArbiter(b *testing.B) {
	b.ReportAllocs()
	cfg := mem.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if s := mem.ContentionSlowdown(cfg, 4, true, 2000); s < 1 {
			b.Fatal("impossible slowdown")
		}
	}
}

// asmInnerLoop extracts the vector inner loop body of a compiled kernel.
func asmInnerLoop(c *lfk.Compiled) ([]isa.Instr, bool) {
	loop, ok := asm.InnerVectorLoop(c.Program)
	if !ok {
		return nil, false
	}
	return loop.Body, true
}

// BenchmarkExtensionBounds regenerates the extension table (t_MACS+ and
// t_MACSD for every kernel).
func BenchmarkExtensionBounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunExtended(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var plain, plus float64
			for _, r := range rows {
				plain += r.PctMACS
				plus += r.PctPlus
			}
			n := float64(len(rows))
			b.ReportMetric(100*plain/n, "avg-pct-MACS")
			b.ReportMetric(100*plus/n, "avg-pct-MACS+")
		}
	}
}

// BenchmarkClusterCoSimulation co-simulates four copies of every kernel
// over the shared banks (the paper's same-executable lockstep case).
func BenchmarkClusterCoSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunClusterContention(experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var d float64
			for _, r := range rows {
				d += r.Degradation
			}
			b.ReportMetric(d/float64(len(rows)), "avg-lockstep-degradation")
		}
	}
}

// BenchmarkMachineComparison runs the suite across machine presets
// (C-240, Cray-1-like, Cray-2-like).
func BenchmarkMachineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMachineComparison()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			names := []string{"MFLOPS-C240", "MFLOPS-Cray1like", "MFLOPS-Cray2like"}
			for j, r := range rows {
				if j < len(names) {
					b.ReportMetric(r.MFLOPS, names[j])
				}
			}
		}
	}
}

// BenchmarkExplore measures the design-space exploration engine per
// kernel: one op is a full two-stage sweep of a 120-point machine grid
// (compile once per vector length, fast-tier score every point, simulate
// the top 5%). A sweep keeps nothing for the next, so every timed sweep
// is a first sight. It reports the sweep throughput in grid points per
// wall-clock second and the pruning economy (points swept per point
// simulated); benchgate holds points/sec above the 1000/kernel floor and
// the prune ratio above 10x, and gates points/sec against the committed
// baseline.
func BenchmarkExplore(b *testing.B) {
	grid := explore.Grid{Axes: []explore.Axis{
		{Param: "banks", Values: []float64{8, 16, 24, 32, 48, 64}},
		{Param: "refresh-period", Values: []float64{200, 300, 400, 500, 600}},
		{Param: "vlmax", Values: []float64{32, 64, 96, 128}},
	}}
	for _, k := range lfk.All() {
		k := k
		b.Run(fmt.Sprintf("lfk%d", k.ID), func(b *testing.B) {
			b.ReportAllocs()
			eng, err := explore.New(grid, explore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			req := explore.Request{
				Source:     k.Source,
				Iterations: int64(k.Elements),
				Inputs:     k.Inputs,
			}
			ctx := context.Background()
			var swept, simulated int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw, err := eng.Sweep(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				swept += sw.Swept
				simulated += sw.Simulated
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(swept)/secs, "points/sec")
			}
			if simulated > 0 {
				b.ReportMetric(float64(swept)/float64(simulated), "prune-x")
			}
		})
	}
}
