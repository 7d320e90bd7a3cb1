// Package macs is the public API of this reproduction of "Hierarchical
// Performance Modeling with MACS: A Case Study of the Convex C-240"
// (Boyd & Davidson, ISCA 1993).
//
// The package ties together the full pipeline the paper describes:
//
//   - compile a Fortran-subset kernel with the vectorizing compiler that
//     stands in for the Convex fc compiler;
//   - compute the MA, MAC and MACS performance bounds for its inner loop
//     (the paper's primary contribution, in internal/core);
//   - execute the compiled code on the cycle-level Convex C-240 simulator
//     and measure actual performance t_p;
//   - generate and run the A-process and X-process codes (t_a, t_x);
//   - regenerate every table and figure of the paper's evaluation.
//
// Quick start:
//
//	// bounds + simulated measurement; iterations converts cycles to
//	// CPL, and the inputs, by source variable name, are checked
//	// against the program and written before the run.
//	in := macs.Inputs{Ints: map[string]int64{"N": 2000}, Reals: map[string]float64{"A": 2.5}}
//	res, err := macs.AnalyzeSource(src, iterations, in.Prime())
//	fmt.Println(res.Report())
//
//	// bounds only, no simulation:
//	a, err := macs.BoundSource(src)
//
// The same pipeline is also available as a long-running HTTP service:
// cmd/macsd serves POST /v1/analyze, /v1/batch (many kernels per request,
// per-kernel NDJSON streaming), /v1/explore (machine-parameter grid
// sweeps), /v1/bound, /v1/check, /v1/ax and GET /v1/lfk/{id} through
// internal/service, with a worker pool, a content-addressed result cache
// (optionally persisted across restarts via -cache-dir) and JSON metrics
// on /metrics (see the README's "macsd" section).
//
// The subsystems are exposed through type aliases so the whole machinery
// remains one import for downstream users; power users can reach the
// internal packages directly from within this module.
package macs

import (
	"context"
	"fmt"
	"strings"

	"macs/internal/advisor"
	"macs/internal/asm"
	"macs/internal/ax"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/depgraph"
	"macs/internal/experiments"
	"macs/internal/ftn"
	"macs/internal/lfk"
	"macs/internal/obs"
	"macs/internal/vectorize"
	"macs/internal/verify"
	"macs/internal/vm"
)

// Re-exported types. These aliases are the supported public surface.
type (
	// Workload holds MACS operation counts (f_a, f_m, loads, stores).
	Workload = core.Workload
	// Analysis is the complete MA/MAC/MACS bounds hierarchy.
	Analysis = core.Analysis
	// Rules configures chime formation (chaining, pair rule, bubbles...).
	Rules = core.Rules
	// Chime is one group of concurrently executing vector instructions.
	Chime = core.Chime
	// Program is an assembled Convex-style program.
	Program = asm.Program
	// Stats aggregates a simulation run.
	Stats = vm.Stats
	// CPU is one simulated Convex C-240 processor.
	CPU = vm.CPU
	// VMConfig configures the simulator: a Machine plus run-bound knobs.
	VMConfig = vm.Config
	// Machine is the hardware description embedded in VMConfig; its
	// canonical Fingerprint keys every per-machine cache.
	Machine = vm.Machine
	// CompilerOptions configures the vectorizing compiler.
	CompilerOptions = compiler.Options
	// Inputs are a program's memory inputs by source variable name
	// (ints, reals, arrays). Prime turns them into the prime callback
	// AnalyzeSource takes; Check refuses names, kinds and array lengths
	// the program does not declare.
	Inputs = compiler.Inputs
	// Kernel is one Livermore kernel of the case study.
	Kernel = lfk.Kernel
	// KernelResult bundles bounds, measurement and validation status.
	KernelResult = experiments.KernelResult
	// AXMeasurement holds t_p, t_a and t_x cycle counts.
	AXMeasurement = ax.Measurement
	// ExperimentConfig configures table/figure regeneration.
	ExperimentConfig = experiments.Config
	// Attribution is the per-lane stall-attribution ledger of a run (issue
	// plus attributed stall cycles equal total cycles on every lane).
	Attribution = vm.Attribution
	// StallCause classifies one attributed non-issue cycle.
	StallCause = vm.StallCause
	// TraceEvent records the timing of one vector instruction.
	TraceEvent = vm.TraceEvent
	// Diagnostic is one finding of the static program checker.
	Diagnostic = verify.Diagnostic
	// VerifyError is the error a rejected program carries: its full
	// diagnostic list (errors.As-compatible).
	VerifyError = verify.Error
	// Severity grades a checker Diagnostic.
	Severity = verify.Severity
)

// Tier names how an analysis was served. Every analysis simulates, so
// TierExact is the only tier; the service still labels its responses
// with it.
type Tier int

// TierExact runs the cycle-level simulator.
const TierExact Tier = 0

func (t Tier) String() string {
	if t != TierExact {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return "exact"
}

// Diagnostic severities, least to most severe.
const (
	SevInfo    = verify.SevInfo
	SevWarning = verify.SevWarning
	SevError   = verify.SevError
)

// Defaults for the C-240 configuration.
func DefaultRules() Rules                       { return core.DefaultRules() }
func DefaultVMConfig() VMConfig                 { return vm.DefaultConfig() }
func DefaultMachine() Machine                   { return vm.DefaultMachine() }
func DefaultCompilerOptions() CompilerOptions   { return compiler.DefaultOptions() }
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// NewCPU creates a simulator instance.
func NewCPU(cfg VMConfig) *CPU { return vm.New(cfg) }

// Compile compiles Fortran-subset source to Convex-style assembly.
func Compile(src string, opts CompilerOptions) (*Program, error) {
	return compiler.Compile(src, opts)
}

// ParseAsm parses assembly text into a Program.
func ParseAsm(src string) (*Program, error) { return asm.Parse(src) }

// DataSymbol maps a source-level variable name to its compiled data
// symbol ("N" becomes "d_N") — the names Memory.SymbolAddr looks up.
func DataSymbol(name string) string { return compiler.DataSym(name) }

// Verify statically checks a program (use-before-def, VL/VS discipline,
// branch targets, static memory bounds, chime-resource conflicts) and
// returns every finding, most severe first per instruction.
func Verify(p *Program) []Diagnostic { return verify.Check(p) }

// VerifyProgram gates a program: nil when Verify reports no
// error-severity findings, otherwise a *VerifyError holding them all.
// AnalyzeSource and BoundSource apply this gate to compiled code before
// the model or the simulator ever see it.
func VerifyProgram(p *Program) error { return verify.Must(p) }

// Kernels returns the ten LFK kernels of the paper's case study.
func Kernels() []*Kernel { return lfk.All() }

// KernelByID returns one case-study kernel (1,2,3,4,6,7,8,9,10,12).
func KernelByID(id int) (*Kernel, error) { return lfk.ByID(id) }

// RunKernel compiles, bounds, measures and validates one kernel.
func RunKernel(k *Kernel, cfg ExperimentConfig) (KernelResult, error) {
	return experiments.RunKernel(k, cfg)
}

// MABound computes the MA workload of a source's inner loop (perfect
// index analysis on the high-level code).
func MABound(src string) (Workload, error) { return compiler.MAWorkload(src) }

// MACSBoundOf computes t_MACS (CPL) for a compiled program's inner
// vectorized loop at the given vector length.
func MACSBoundOf(p *Program, vl int, rules Rules) (float64, error) {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return 0, fmt.Errorf("macs: program has no vectorized inner loop")
	}
	return core.MACSBound(loop.Body, vl, rules).CPL, nil
}

// Result is the outcome of AnalyzeSource: the full hierarchy plus the
// measured run.
type Result struct {
	Analysis Analysis
	Stats    Stats
	Program  *Program
	// MeasuredCPL is cycles per inner-loop iteration; Iterations is the
	// iteration count used for the conversion.
	MeasuredCPL float64
	Iterations  int64
	// Trace holds the run's vector timing events when the VM config enables
	// tracing (Trace or TraceRing); export with ChromeTrace.
	Trace []TraceEvent
}

// boundSource compiles src and computes the MA/MAC/MACS hierarchy of its
// inner loop under the given configuration. It is the shared front half
// of BoundSource and AnalyzeSource. The source is parsed once: code
// generation leaves the syntax tree untouched (compiler's
// TestCompileLeavesASTUntouched), so the MA workload reads the tree the
// compiler lowered. The compile, verify and bound stages each record a
// span on the trace riding ctx (no-ops when none does).
func boundSource(ctx context.Context, src string, opts CompilerOptions, vl int, rules Rules) (*Program, Analysis, error) {
	var a Analysis
	_, sp := obs.Start(ctx, "compile")
	parsed, err := ftn.Parse(src)
	var prog *Program
	if err == nil {
		prog, err = compiler.CompileProgram(parsed, opts)
	}
	sp.End()
	if err != nil {
		return nil, a, err
	}
	_, sp = obs.Start(ctx, "verify")
	err = verify.Must(prog)
	sp.End()
	if err != nil {
		return prog, a, err
	}
	_, sp = obs.Start(ctx, "bound")
	a, err = BoundParsed(parsed, prog, vl, rules)
	sp.End()
	return prog, a, err
}

// BoundParsed is the model half of boundSource: MA workload from the
// parsed source, chime partition from the compiled loop, critical path
// from the dependence graph. It serves callers inside this module that
// parse a source once and bound its compiles at several vector lengths
// and rule sets (the explore engine); prog must have been compiled from
// parsed.
func BoundParsed(parsed *ftn.Program, prog *Program, vl int, rules Rules) (Analysis, error) {
	var a Analysis
	loopStmt, ok := compiler.InnerLoop(parsed)
	if !ok {
		return a, fmt.Errorf("macs: source has no DO loop")
	}
	ma, err := vectorize.MAWorkload(parsed, loopStmt)
	if err != nil {
		return a, err
	}
	loop, ok := asm.InnerVectorLoop(prog)
	if !ok {
		return a, fmt.Errorf("macs: compiled code has no vectorized inner loop")
	}
	a = core.Analyze(ma, loop.Body, vl, rules)
	if cp, _, ok := depgraph.Analyze(prog, vl, depgraph.DefaultParams()); ok {
		a.TCP = cp.CPL
	}
	return a, nil
}

// BoundCompiled computes the MA/MAC/MACS hierarchy (plus the t_CP
// critical path) of an already-compiled program under an explicit vector
// length and rule set — the model half of BoundSource for callers that
// compile once and bound many machine variants. src must be the source
// prog was compiled from: the MA workload comes from the high-level code,
// which BoundCompiled parses on each call (BoundParsed takes the tree).
func BoundCompiled(src string, prog *Program, vl int, rules Rules) (Analysis, error) {
	parsed, err := ftn.Parse(src)
	if err != nil {
		return Analysis{}, err
	}
	return BoundParsed(parsed, prog, vl, rules)
}

// BoundSource compiles src and computes the MA/MAC/MACS bounds hierarchy
// of its inner loop without running the simulator — the cheap half of
// AnalyzeSource, for callers that only want the model.
func BoundSource(src string) (Analysis, error) {
	return BoundSourceCtx(context.Background(), src)
}

// BoundSourceCtx is BoundSource under a context: stage spans (compile,
// verify, bound) are recorded on the trace riding ctx, if any.
func BoundSourceCtx(ctx context.Context, src string) (Analysis, error) {
	_, a, err := boundSource(ctx, src, compiler.DefaultOptions(), vm.DefaultConfig().VLMax, core.DefaultRules())
	return a, err
}

// AnalyzeSource runs the full MACS pipeline on a kernel source: compile,
// bound, simulate. iterations tells the conversion to CPL how many
// inner-loop iterations the program executes; prime (optional) sets
// memory inputs before the run — Inputs.Prime supplies it.
func AnalyzeSource(src string, iterations int64, prime func(*CPU) error) (Result, error) {
	return AnalyzeSourceVM(src, iterations, vm.DefaultConfig(), prime)
}

// AnalyzeSourceVM is AnalyzeSource with an explicit simulator
// configuration: use it to enable tracing (Trace/TraceRing), model memory
// contention (MemSlowdown) or change the machine. The program is compiled
// and bounded at the machine's compile vector length (Machine.CompileVL)
// under its chime rules. Every call runs on a fresh simulator.
func AnalyzeSourceVM(src string, iterations int64, cfg VMConfig, prime func(*CPU) error) (Result, error) {
	return AnalyzeSourceVMCtx(context.Background(), src, iterations, cfg, prime)
}

// compilerOptionsFor is the default compile options strip-mined at the
// machine's compile vector length (Machine.CompileVL), the length its
// bounds are computed at too.
func compilerOptionsFor(cfg VMConfig) CompilerOptions {
	opts := compiler.DefaultOptions()
	opts.VL = cfg.CompileVL()
	return opts
}

// AnalyzeSourceVMCtx is AnalyzeSourceVM under a context: every pipeline
// stage (compile, verify, bound, load, prime, simulate) records a span on
// the trace riding ctx, and the run's vector timing events are attached
// to the trace as simulator lanes, converted only if the trace is viewed.
// Without a trace on ctx the overhead is a handful of nil checks.
func AnalyzeSourceVMCtx(ctx context.Context, src string, iterations int64, cfg VMConfig, prime func(*CPU) error) (Result, error) {
	var res Result
	opts := compilerOptionsFor(cfg)
	prog, a, err := boundSource(ctx, src, opts, opts.VL, cfg.Rules)
	res.Program = prog
	if err != nil {
		return res, err
	}
	res.Analysis = a
	cpu := vm.New(cfg)
	_, sp := obs.Start(ctx, "load")
	err = cpu.Load(prog)
	sp.End()
	if err != nil {
		return res, err
	}
	if prime != nil {
		_, sp = obs.Start(ctx, "prime")
		err = prime(cpu)
		sp.End()
		if err != nil {
			return res, err
		}
	}
	_, sim := obs.Start(ctx, "simulate")
	res.Stats, err = cpu.Run()
	res.Trace = cpu.TraceEvents()
	if tr := obs.FromContext(ctx); tr != nil && len(res.Trace) > 0 {
		events := res.Trace
		tr.AddLanes(func() []obs.LaneEvent { return vm.LaneEvents(events) })
	}
	sim.End()
	if err != nil {
		return res, err
	}
	res.Iterations = iterations
	if iterations > 0 {
		res.MeasuredCPL = float64(res.Stats.Cycles) / float64(iterations)
	}
	return res, nil
}

// Analyzer is the full pipeline on one machine: it answers exactly as
// AnalyzeSourceVM does with its configuration, and its BoundSourceCtx and
// CompilerOptions use that machine's vector length and chime rules. It
// holds no simulator state, so it is safe for concurrent use.
type Analyzer struct {
	cfg VMConfig
}

// NewAnalyzer creates an Analyzer for one simulator configuration.
func NewAnalyzer(cfg VMConfig) *Analyzer {
	return &Analyzer{cfg: cfg}
}

// Config returns the analyzer's simulator configuration.
func (a *Analyzer) Config() VMConfig { return a.cfg }

// CompilerOptions returns the options every analyzer path compiles
// with: the defaults, strip-mined at the machine's compile vector length.
func (a *Analyzer) CompilerOptions() CompilerOptions { return compilerOptionsFor(a.cfg) }

// BoundSourceCtx is BoundSourceCtx on the analyzer's machine: the source
// is compiled with CompilerOptions and bounded at its vector length under
// the configuration's chime rules, so the hierarchy equals the one
// AnalyzeSourceCtx reports.
func (a *Analyzer) BoundSourceCtx(ctx context.Context, src string) (Analysis, error) {
	opts := a.CompilerOptions()
	_, an, err := boundSource(ctx, src, opts, opts.VL, a.cfg.Rules)
	return an, err
}

// AnalyzeSource runs the full pipeline — compile, bound, simulate — on a
// fresh simulator of the analyzer's configuration.
func (a *Analyzer) AnalyzeSource(src string, iterations int64, prime func(*CPU) error) (Result, error) {
	return a.AnalyzeSourceCtx(context.Background(), src, iterations, prime)
}

// AnalyzeSourceCtx is AnalyzeSource under a context, traced as
// AnalyzeSourceVMCtx is.
func (a *Analyzer) AnalyzeSourceCtx(ctx context.Context, src string, iterations int64, prime func(*CPU) error) (Result, error) {
	return AnalyzeSourceVMCtx(ctx, src, iterations, a.cfg, prime)
}

// ChromeTrace renders vector timing events (Result.Trace) as a Chrome
// trace_event JSON document for chrome://tracing or Perfetto: one row per
// VP pipe on the "simulator lanes (1 cycle = 1us)" track, one complete
// event per vector instruction from stream entry to last element.
func ChromeTrace(events []TraceEvent) ([]byte, error) {
	return obs.ChromeTrace(obs.TraceView{Lanes: vm.LaneEvents(events)})
}

// LaneEvents converts vector timing events into the generic per-lane
// shape obs.ChromeTrace merges with pipeline spans — use it to attach a
// run's Result.Trace to an obs.Trace by hand; the Ctx entry points do
// this automatically.
func LaneEvents(events []TraceEvent) []obs.LaneEvent { return vm.LaneEvents(events) }

// Report renders the hierarchy of one Result as text: the MA and MAC
// workloads with their bounds, t_MACS with its chimes and variants, t_CP
// when the dependence graph yields one, and the measured t_p.
func (r Result) Report() string {
	var b strings.Builder
	a := r.Analysis
	fmt.Fprintf(&b, "MA workload:  %s  -> t_MA  = %.3f CPL\n", a.MA, a.TMA)
	fmt.Fprintf(&b, "MAC workload: %s  -> t_MAC = %.3f CPL\n", a.MAC, a.TMAC)
	fmt.Fprintf(&b, "t_MACS = %.3f CPL over %d chimes (t_MACS^f %.3f, t_MACS^m %.3f)\n",
		a.MACS.CPL, len(a.MACS.Chimes), a.MACSF.CPL, a.MACSM.CPL)
	if a.TCP > 0 {
		fmt.Fprintf(&b, "t_CP   = %.3f CPL (dependence critical path)\n", a.TCP)
	}
	if r.MeasuredCPL > 0 {
		fmt.Fprintf(&b, "measured t_p = %.3f CPL (%d cycles, %d iterations)\n",
			r.MeasuredCPL, r.Stats.Cycles, r.Iterations)
	}
	return b.String()
}

// MeasureAX generates and runs the A-process and X-process codes of a
// compiled program (paper §3.6).
func MeasureAX(p *Program, cfg VMConfig, prime func(*CPU) error) (AXMeasurement, error) {
	return ax.Measure(p, cfg, prime)
}

// Extension types: the decomposition-aware bound (the paper's proposed
// "D" degree of freedom), the short-vector extended bound, and the §4.4
// diagnosis engine.
type (
	// LoopShape describes how a kernel drives its inner loop (total
	// elements, entry count, outer scalar estimate).
	LoopShape = core.LoopShape
	// Diagnosis is a ranked list of diagnosed performance losses.
	Diagnosis = advisor.Diagnosis
	// DiagnosisInputs feeds Diagnose.
	DiagnosisInputs = advisor.Inputs
)

// MACSDBoundOf computes the decomposition-aware bound t_MACSD (CPL) of a
// program's inner loop: like t_MACS but with each memory stream's rate
// limited by its bank decomposition.
func MACSDBoundOf(p *Program, vl int, rules Rules) (float64, error) {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return 0, fmt.Errorf("macs: program has no vectorized inner loop")
	}
	return core.MACSDBound(loop.Body, vl, rules).CPL, nil
}

// ExtendedBoundOf computes the short-vector-aware bound t_MACS+ (CPL) of
// a program's inner loop under the given loop shape.
func ExtendedBoundOf(p *Program, shape LoopShape, rules Rules) (float64, error) {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return 0, fmt.Errorf("macs: program has no vectorized inner loop")
	}
	return core.ExtendedBound(loop.Body, shape, rules).CPL, nil
}

// Diagnose applies the paper's §4.4 gap-analysis rules to a kernel's
// bounds and measurements.
func Diagnose(in DiagnosisInputs) Diagnosis { return advisor.Diagnose(in) }
