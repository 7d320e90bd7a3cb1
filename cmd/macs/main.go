// Command macs is the MACS toolchain driver: it compiles Fortran-subset
// kernels to Convex-style assembly, computes the MA/MAC/MACS bounds
// hierarchy, runs programs on the cycle-level C-240 simulator, generates
// A/X codes, and runs the instruction calibration loops.
//
// Usage:
//
//	macs compile <kernel.f>        print the compiled assembly
//	macs check   <kernel.f>        statically verify the compiled code and
//	                               print every diagnostic; exits non-zero
//	                               when the checker finds errors
//	macs bound   <kernel.f>        print the bounds hierarchy
//	macs sim     <kernel.f> [-n N] compile and simulate (N inner iterations
//	                               for the CPL conversion)
//	macs analyze <kernel.f> [-n N] [-ints N=1001] [-trace out.json]
//	                               compile, bound and simulate with primed
//	                               integer inputs; -trace writes the
//	                               pipeline spans merged with the simulator
//	                               lanes as one Chrome trace_event timeline
//	macs attr    <kernel.f> [-n N] [-trace out.json] [-ring N]
//	                               simulate and print the per-lane stall
//	                               attribution table; -trace writes the
//	                               vector timing as Chrome trace_event JSON
//	macs deps    <kernel.f>        print the inner-loop dependence graph
//	                               analysis: edge census, critical path,
//	                               initiation-interval bounds and what the
//	                               interval analysis proved about each
//	                               vector memory stream
//	macs ax      <kernel.f>        print the A-process and X-process codes
//	macs batch [-addr URL] [-n N] [-ints N=1001] k1.f k2.f ...
//	                               analyze many kernels in one batch and
//	                               stream per-kernel NDJSON results; with
//	                               -addr they go through a running macsd's
//	                               /v1/batch, otherwise in-process
//	macs calib                     run the Table 1 calibration loops
//	macs explore [kernel.f | -lfk id|all] [-grid spec.json] [-axis p=v1,v2]
//	             [-top F] [-losers N] [-attr] [-params]
//	                               design-space exploration: compile the
//	                               kernel once, sweep a grid of machine
//	                               variants, score every point with the
//	                               predictor and simulate only the top
//	                               fraction; prints the
//	                               ranked table (and the winner's stall
//	                               attribution with -attr)
//	macs lfk <id>                  analyze one case-study kernel
//
// A filename of "-" reads from standard input.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"macs"
	"macs/internal/asm"
	"macs/internal/ax"
	"macs/internal/calib"
	"macs/internal/depgraph"
	"macs/internal/mem"
	"macs/internal/obs"
	"macs/internal/report"
	"macs/internal/service"
	"macs/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "compile":
		err = cmdCompile(os.Stdout, args)
	case "check":
		err = cmdCheck(os.Stdout, args)
	case "bound":
		err = cmdBound(os.Stdout, args)
	case "sim":
		err = cmdSim(os.Stdout, args)
	case "analyze":
		err = cmdAnalyze(os.Stdout, args)
	case "deps":
		err = cmdDeps(os.Stdout, args)
	case "attr":
		err = cmdAttr(os.Stdout, args)
	case "ax":
		err = cmdAX(os.Stdout, args)
	case "batch":
		err = cmdBatch(os.Stdout, args)
	case "calib":
		err = cmdCalib(os.Stdout)
	case "sweep":
		err = cmdSweep(os.Stdout)
	case "explore":
		err = cmdExplore(os.Stdout, args)
	case "lfk":
		err = cmdLFK(os.Stdout, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "macs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: macs {compile|check|bound|sim|analyze|deps|attr|ax|explore} <kernel.f> | macs batch <k1.f> <k2.f> ... | macs calib | macs sweep | macs explore -lfk <id|all> | macs lfk <id>")
	os.Exit(2)
}

func readSource(args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("missing source file")
	}
	if args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(args[0])
	return string(b), err
}

func cmdCompile(w io.Writer, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	p, err := macs.Compile(src, macs.DefaultCompilerOptions())
	if err != nil {
		return err
	}
	fmt.Fprint(w, p.String())
	return nil
}

// cmdCheck compiles a kernel and runs the static checker, printing every
// finding anchored to its instruction. Error-severity findings make the
// command fail, so it gates CI and scripted pipelines.
func cmdCheck(w io.Writer, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	p, err := macs.Compile(src, macs.DefaultCompilerOptions())
	if err != nil {
		return err
	}
	ds := macs.Verify(p)
	nerr := 0
	for _, d := range ds {
		if d.Severity == macs.SevError {
			nerr++
		}
		fmt.Fprintln(w, d.Render(p))
	}
	if nerr > 0 {
		return fmt.Errorf("check failed: %d error(s), %d finding(s) total", nerr, len(ds))
	}
	fmt.Fprintf(w, "ok: %d instruction(s), %d finding(s), no errors\n", len(p.Instrs), len(ds))
	return nil
}

// cmdBound compiles and checks a kernel and prints its bounds (t_MA,
// t_MAC, t_MACS, t_CP) without running it, so data larger than the
// simulator's memory bounds all the same.
func cmdBound(w io.Writer, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	a, err := macs.BoundSource(src)
	if err != nil {
		return err
	}
	fmt.Fprint(w, macs.Result{Analysis: a}.Report())
	return nil
}

// cmdDeps compiles a kernel and prints the static dependence analysis of
// its inner vectorized loop: the edge census, the critical-path chain
// with its chaining-aware length, the initiation-interval bounds behind
// t_CP, and the interval analysis' verdict on every vector memory stream.
func cmdDeps(w io.Writer, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	p, err := macs.Compile(src, macs.DefaultCompilerOptions())
	if err != nil {
		return err
	}
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return fmt.Errorf("compiled code has no vectorized inner loop")
	}
	vl := macs.DefaultVMConfig().VLMax
	cp, g, _ := depgraph.Analyze(p, vl, depgraph.DefaultParams())

	shape := "straight-line"
	if !cp.StraightLine {
		shape = "with internal control flow"
	}
	fmt.Fprintf(w, "inner loop %s: %d instructions, %s\n", loop.Label, len(loop.Body), shape)
	fmt.Fprintf(w, "edges: %d true, %d anti, %d output (%d loop-carried)\n",
		g.KindCount(depgraph.EdgeTrue), g.KindCount(depgraph.EdgeAnti),
		g.KindCount(depgraph.EdgeOutput), g.Carried())
	fmt.Fprintf(w, "critical path at VL=%d: %d cycles\n", cp.VL, cp.Len)
	for _, i := range cp.Crit {
		fmt.Fprintf(w, "  [%2d] %s\n", i, loop.Body[i].String())
	}
	fmt.Fprintf(w, "initiation interval: serial %d, carried %d -> II %d\n",
		cp.IISerial, cp.IICarried, cp.II)
	if cp.CPL > 0 {
		fmt.Fprintf(w, "t_CP = %.3f CPL\n", cp.CPL)
	} else {
		fmt.Fprintln(w, "t_CP: no per-element claim (body not straight-line)")
	}

	iv := depgraph.Intervals(p, depgraph.Rows(p))
	facts := depgraph.StreamFacts(p, iv, mem.DefaultConfig())
	if len(facts) > 0 {
		fmt.Fprintln(w, "vector memory streams:")
		for _, f := range facts {
			verdict := "unproven (stride not statically bounded)"
			switch {
			case f.ConflictFree:
				verdict = "provably bank-conflict-free"
			case f.Conflicting:
				verdict = "provably bank-conflicting"
			}
			fmt.Fprintf(w, "  [%2d] %-24s stride %-12s %s\n",
				f.Idx, f.Instr.String(), f.Stride.String(), verdict)
		}
	}
	return nil
}

func cmdSim(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	n := fs.Int64("n", 0, "inner-loop iterations for CPL conversion")
	var file string
	if len(args) > 0 && args[0][0] != '-' {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource([]string{file})
	if err != nil {
		return err
	}
	res, err := macs.AnalyzeSource(src, *n, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Report())
	fmt.Fprintf(w, "stats: %d instrs (%d vector), %d chimes, %d memory stall cycles\n",
		res.Stats.Instrs, res.Stats.VectorInstrs, res.Stats.Chimes, res.Stats.MemStalls)
	return nil
}

// cmdAnalyze runs the full pipeline on a kernel — compile, bound,
// simulate — with integer inputs primed by name.
func cmdAnalyze(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	n := fs.Int64("n", 0, "inner-loop iterations for CPL conversion")
	ints := fs.String("ints", "", "integer inputs to prime, e.g. N=1001,LOOP=20")
	traceOut := fs.String("trace", "", "write the pipeline trace merged with the simulator lanes as Chrome trace_event JSON to this file")
	var file string
	if len(args) > 0 && args[0][0] != '-' {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource([]string{file})
	if err != nil {
		return err
	}
	in, err := parseInputs(*ints)
	if err != nil {
		return err
	}

	// With -trace, every pipeline stage records a span on tr and the
	// simulated run's lane events merge into the same timeline.
	ctx := context.Background()
	cfg := macs.DefaultVMConfig()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("")
		ctx = obs.NewContext(ctx, tr)
		cfg.Trace = true
	}
	ctx, root := obs.Start(ctx, "analyze")
	start := time.Now()
	res, err := macs.AnalyzeSourceVMCtx(ctx, src, *n, cfg, in.Prime())
	root.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tier: exact (%s)\n", time.Since(start).Round(time.Microsecond))
	fmt.Fprint(w, res.Report())
	if tr == nil {
		return nil
	}
	v := tr.View()
	b, err := obs.ChromeTrace(v)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: %d spans, %d lane events -> %s\n",
		v.ID, len(v.Spans), len(v.Lanes), *traceOut)
	return nil
}

// parseInputs parses an -ints flag, "N=1001,LOOP=20", into the integer
// inputs of a program.
func parseInputs(s string) (macs.Inputs, error) {
	if s == "" {
		return macs.Inputs{}, nil
	}
	ints := make(map[string]int64)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return macs.Inputs{}, fmt.Errorf("bad -ints entry %q (want name=value)", kv)
		}
		var v int64
		if _, err := fmt.Sscanf(val, "%d", &v); err != nil {
			return macs.Inputs{}, fmt.Errorf("bad -ints value %q: %v", kv, err)
		}
		ints[name] = v
	}
	return macs.Inputs{Ints: ints}, nil
}

// cmdBatch analyzes many kernels in one batch, streaming one NDJSON
// result line per kernel as it completes. With -addr the batch goes
// through a running macsd's /v1/batch endpoint; without it the batch
// runs in-process through the same service engine.
func cmdBatch(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	addr := fs.String("addr", "", "macsd base URL (e.g. http://localhost:8723); empty runs in-process")
	n := fs.Int64("n", 0, "inner-loop iterations for CPL conversion, applied to every kernel")
	ints := fs.String("ints", "", "integer inputs to prime every kernel, e.g. N=1001,LOOP=20")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("missing kernel files")
	}
	in, err := parseInputs(*ints)
	if err != nil {
		return err
	}

	var req service.BatchRequest
	for _, f := range files {
		src, err := readSource([]string{f})
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		req.Items = append(req.Items, service.AnalyzeRequest{
			Source:     src,
			Iterations: *n,
			Prime:      in,
		})
	}
	if *addr != "" {
		return batchRemote(w, *addr, req)
	}
	return batchLocal(w, req)
}

// batchLocal runs the batch through an in-process service, printing
// each result line as the engine emits it.
func batchLocal(w io.Writer, req service.BatchRequest) error {
	svc := service.New(service.Config{})
	defer svc.Close()
	enc := json.NewEncoder(w)
	failed := 0
	err := svc.AnalyzeBatch(context.Background(), req, func(item service.BatchItemResult) {
		if item.Error != "" {
			failed++
		}
		enc.Encode(item) //nolint:errcheck // stdout
	})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d kernels failed", failed, len(req.Items))
	}
	return nil
}

// batchRemote POSTs the batch to a running macsd and relays the NDJSON
// stream line by line as it arrives.
func batchRemote(w io.Writer, addr string, req service.BatchRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("batch status %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	failed := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var item service.BatchItemResult
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return fmt.Errorf("bad batch line: %w", err)
		}
		if item.Error != "" {
			failed++
		}
		fmt.Fprintf(w, "%s\n", sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d kernels failed", failed, len(req.Items))
	}
	return nil
}

// cmdAttr simulates a kernel and prints where every cycle of every lane
// went: the per-lane stall attribution table, plus optionally the vector
// timing trace as Chrome trace_event JSON.
func cmdAttr(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("attr", flag.ExitOnError)
	n := fs.Int64("n", 0, "inner-loop iterations for CPL conversion")
	traceOut := fs.String("trace", "", "write Chrome trace_event JSON to this file")
	ring := fs.Int("ring", 4096, "bounded trace ring capacity (0 disables)")
	var file string
	if len(args) > 0 && args[0][0] != '-' {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource([]string{file})
	if err != nil {
		return err
	}
	cfg := macs.DefaultVMConfig()
	if *traceOut != "" {
		cfg.Trace = true // unbounded: the export should cover the whole run
	} else {
		cfg.TraceRing = *ring
	}
	res, err := macs.AnalyzeSourceVM(src, *n, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Report())
	fmt.Fprintln(w)
	fmt.Fprint(w, report.AttributionTable(res.Stats))
	if err := res.Stats.Attr.Conserved(res.Stats.Cycles); err != nil {
		return err
	}
	if *traceOut != "" {
		b, err := macs.ChromeTrace(res.Trace)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %d trace events to %s\n", len(res.Trace), *traceOut)
	}
	return nil
}

func cmdAX(w io.Writer, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	p, err := macs.Compile(src, macs.DefaultCompilerOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "; ===== A-process (vector FP deleted) =====")
	fmt.Fprint(w, ax.AProcess(p).String())
	fmt.Fprintln(w, "; ===== X-process (vector memory deleted) =====")
	fmt.Fprint(w, ax.XProcess(p).String())
	return nil
}

func cmdCalib(w io.Writer) error {
	res, err := calib.CalibrateAll(vm.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report.Table1(res))
	return nil
}

// cmdSweep prints the VL sweep and half-performance lengths of every
// Table 1 instruction type.
func cmdSweep(w io.Writer) error {
	vls := []int{4, 8, 16, 32, 64, 128}
	fmt.Fprintf(w, "%-6s", "instr")
	for _, vl := range vls {
		fmt.Fprintf(w, "  VL=%-5d", vl)
	}
	fmt.Fprintf(w, "  n1/2(cold)  n1/2(steady)\n")
	for _, op := range calib.Table1Ops() {
		pts, err := calib.VLSweep(op, vls, vm.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s", op)
		for _, p := range pts {
			fmt.Fprintf(w, "  %-8.2f", p.CyclesPerElem)
		}
		cold, steady, err := calib.HalfPerformanceLength(op)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10.1f  %.1f\n", cold, steady)
	}
	fmt.Fprintln(w, "\ncycles per element in steady state; n1/2 is Hockney's half-performance length")
	return nil
}

func cmdLFK(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("missing kernel id")
	}
	var id int
	if _, err := fmt.Sscanf(args[0], "%d", &id); err != nil {
		return err
	}
	k, err := macs.KernelByID(id)
	if err != nil {
		return err
	}
	r, err := macs.RunKernel(k, macs.DefaultExperimentConfig())
	if err != nil {
		return err
	}
	tma, tmac, tmacs, tp := r.CPLs()
	fmt.Fprintf(w, "LFK%d (%s), n=%d, %d flops/iteration\n", k.ID, k.Name, k.N, k.FlopsPerIteration())
	fmt.Fprintf(w, "  t_MA   = %7.3f CPL\n", tma)
	fmt.Fprintf(w, "  t_MAC  = %7.3f CPL\n", tmac)
	fmt.Fprintf(w, "  t_MACS = %7.3f CPL\n", tmacs)
	fmt.Fprintf(w, "  t_p    = %7.3f CPL (measured, output validated: %v)\n", tp, r.Validated)
	fmt.Fprintf(w, "  t_a    = %7.3f CPL, t_x = %7.3f CPL (A/X measurements)\n",
		k.CPL(r.AX.TA), k.CPL(r.AX.TX))
	fmt.Fprintf(w, "  paper (CPF): t_MA %.3f, t_MAC %.3f, t_MACS %.3f, t_p %.3f\n",
		k.Paper.TMA, k.Paper.TMAC, k.Paper.TMACS, k.Paper.TP)

	// Extended bound (short vectors, startup, reductions, outer scalars).
	prog, err := macs.Compile(k.Source, macs.DefaultCompilerOptions())
	if err != nil {
		return err
	}
	if ext, err := macs.ExtendedBoundOf(prog, k.Shape(), macs.DefaultRules()); err == nil {
		fmt.Fprintf(w, "  t_MACS+ = %7.3f CPL (extended: strips, startup, reductions, scalar)\n", ext)
	}
	if d, err := macs.MACSDBoundOf(prog, 128, macs.DefaultRules()); err == nil {
		fmt.Fprintf(w, "  t_MACSD = %7.3f CPL (decomposition-aware)\n", d)
	}

	// Diagnosis per the paper's section 4.4.
	diag := macs.Diagnose(macs.DiagnosisInputs{
		Analysis: r.Analysis,
		TP:       k.CPL(r.AX.TP),
		TA:       k.CPL(r.AX.TA),
		TX:       k.CPL(r.AX.TX),
		Attr:     &r.Stats.Attr,
	})
	fmt.Fprintf(w, "\ndiagnosis:\n%s", diag)
	fmt.Fprintln(w)
	fmt.Fprint(w, report.AttributionTable(r.Stats))
	return nil
}
