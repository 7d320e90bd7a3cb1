package macs_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"macs"
)

const quickSrc = `
PROGRAM SAXPY
REAL X(2048), Y(2048), A
INTEGER N, K
DO K = 1, N
  Y(K) = Y(K) + A*X(K)
ENDDO
END
`

func TestAnalyzeSource(t *testing.T) {
	x, y := make([]float64, 1000), make([]float64, 1000)
	for i := range x {
		x[i], y[i] = float64(i), 1.0
	}
	in := macs.Inputs{
		Ints:   map[string]int64{"N": 1000},
		Reals:  map[string]float64{"A": 2.0},
		Arrays: map[string][]float64{"X": x, "Y": y},
	}
	res, err := macs.AnalyzeSource(quickSrc, 1000, in.Prime())
	if err != nil {
		t.Fatal(err)
	}
	// saxpy: 1 add, 1 mul, 2 loads, 1 store.
	a := res.Analysis
	if a.MA != (macs.Workload{FA: 1, FM: 1, Loads: 2, Stores: 1}) {
		t.Errorf("MA = %+v", a.MA)
	}
	if a.TMA != 3 || a.TMAC != 3 {
		t.Errorf("bounds: t_MA=%v t_MAC=%v, want 3, 3", a.TMA, a.TMAC)
	}
	if a.MACS.CPL < 3.0 || a.MACS.CPL > 3.3 {
		t.Errorf("t_MACS = %v, want about 3.1", a.MACS.CPL)
	}
	if res.MeasuredCPL < a.MACS.CPL {
		t.Errorf("measured %.3f below bound %.3f", res.MeasuredCPL, a.MACS.CPL)
	}
	rep := res.Report()
	for _, want := range []string{"t_MA", "t_MACS", "measured"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report missing %q:\n%s", want, rep)
		}
	}
}

func TestMABound(t *testing.T) {
	w, err := macs.MABound(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	if w.Flops() != 2 || w.Bound() != 3 {
		t.Errorf("MA = %+v", w)
	}
}

func TestCompileAndMACSBound(t *testing.T) {
	p, err := macs.Compile(quickSrc, macs.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	cpl, err := macs.MACSBoundOf(p, 128, macs.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if cpl < 3.0 || cpl > 3.3 {
		t.Errorf("t_MACS = %v", cpl)
	}
}

func TestKernelRegistry(t *testing.T) {
	if got := len(macs.Kernels()); got != 10 {
		t.Fatalf("Kernels() = %d, want 10", got)
	}
	k, err := macs.KernelByID(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := macs.RunKernel(k, macs.DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Validated {
		t.Error("LFK1 output not validated")
	}
	_, _, tmacs, tp := r.CPFs()
	if math.Abs(tmacs-0.840) > 0.001 {
		t.Errorf("t_MACS CPF = %v, want 0.840", tmacs)
	}
	if tp < tmacs {
		t.Errorf("t_p %v below bound %v", tp, tmacs)
	}
}

func TestMeasureAXFacade(t *testing.T) {
	p, err := macs.Compile(quickSrc, macs.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := macs.MeasureAX(p, macs.DefaultVMConfig(), macs.Inputs{Ints: map[string]int64{"N": 500}}.Prime())
	if err != nil {
		t.Fatal(err)
	}
	if m.TP < m.TA || m.TP < m.TX {
		t.Errorf("t_p=%d below t_a=%d or t_x=%d", m.TP, m.TA, m.TX)
	}
}

func TestParseAsmFacade(t *testing.T) {
	p, err := macs.ParseAsm(".data x 1024\n\tld.l x(a0),v0\n\tadd.d v0,v1,v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 2 {
		t.Errorf("parsed %d instrs", len(p.Instrs))
	}
}

// TestAnalyzeSourceLargeMemory: whether a program's data fits is the
// configured memory's question, so arrays larger than the default 16 MB
// are refused by the default machine's loader and analyze cleanly on a
// machine with 64 MB.
func TestAnalyzeSourceLargeMemory(t *testing.T) {
	src := strings.ReplaceAll(quickSrc, "2048", "3000000") // two 24 MB arrays
	prime := macs.Inputs{Ints: map[string]int64{"N": 64}}.Prime()
	cfg := macs.DefaultVMConfig()
	const oom = `mem: out of memory allocating "d_X" (24000000 bytes)`
	if _, err := macs.AnalyzeSourceVM(src, 64, cfg, prime); err == nil || !strings.HasSuffix(err.Error(), oom) {
		t.Errorf("16 MB memory: error = %v, want one ending in %q", err, oom)
	}
	cfg.MemSize = 64 << 20
	res, err := macs.AnalyzeSourceVM(src, 64, cfg, prime)
	if err != nil {
		t.Fatalf("64 MB memory: %v", err)
	}
	if res.MeasuredCPL < res.Analysis.MACS.CPL {
		t.Errorf("measured %.3f below bound %.3f", res.MeasuredCPL, res.Analysis.MACS.CPL)
	}
}

func TestAnalyzeSourceErrors(t *testing.T) {
	if _, err := macs.AnalyzeSource("PROGRAM P\nREAL A\nA = 1.0\nEND", 1, nil); err == nil {
		t.Error("loop-free source should fail")
	}
	if _, err := macs.AnalyzeSource("garbage", 1, nil); err == nil {
		t.Error("unparsable source should fail")
	}
}

func TestExtensionFacades(t *testing.T) {
	p, err := macs.Compile(quickSrc, macs.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	macsCPL, err := macs.MACSBoundOf(p, 128, macs.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	d, err := macs.MACSDBoundOf(p, 128, macs.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if d != macsCPL {
		t.Errorf("unit-stride saxpy: t_MACSD %v != t_MACS %v", d, macsCPL)
	}
	ext, err := macs.ExtendedBoundOf(p, macs.LoopShape{Elements: 1000, Entries: 10, OuterScalarOps: 20}, macs.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if ext < macsCPL {
		t.Errorf("t_MACS+ %v below t_MACS %v", ext, macsCPL)
	}
	// Loop-free program: all three bound facades report the error.
	flat, err := macs.Compile("PROGRAM P\nREAL A\nA = 1.0\nEND", macs.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := macs.MACSBoundOf(flat, 128, macs.DefaultRules()); err == nil {
		t.Error("MACSBoundOf should fail on loop-free code")
	}
	if _, err := macs.MACSDBoundOf(flat, 128, macs.DefaultRules()); err == nil {
		t.Error("MACSDBoundOf should fail on loop-free code")
	}
	if _, err := macs.ExtendedBoundOf(flat, macs.LoopShape{Elements: 1}, macs.DefaultRules()); err == nil {
		t.Error("ExtendedBoundOf should fail on loop-free code")
	}
}

// TestChromeTraceJSON: a traced run exports as Chrome trace_event JSON
// with one complete event per vector timing event, each of positive
// duration, on the labelled simulator-lane track (timestamps are cycles);
// nil input still yields a valid document.
func TestChromeTraceJSON(t *testing.T) {
	cfg := macs.DefaultVMConfig()
	cfg.Trace = true
	res, err := macs.AnalyzeSourceVM(quickSrc, 256, cfg, macs.Inputs{Ints: map[string]int64{"N": 256}}.Prime())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced run recorded no events")
	}
	b, err := macs.ChromeTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("ChromeTrace produced invalid JSON: %v", err)
	}
	lanePID, x := -1, 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.Args["name"] == "simulator lanes (1 cycle = 1us)" {
			lanePID = e.PID
		}
	}
	if lanePID < 0 {
		t.Fatalf("no labelled simulator-lane track:\n%s", b)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		x++
		if e.PID != lanePID {
			t.Errorf("event %q on pid %d, want the lane track %d", e.Name, e.PID, lanePID)
		}
		if e.Dur <= 0 {
			t.Errorf("event %q has non-positive dur %d", e.Name, e.Dur)
		}
	}
	if x != len(res.Trace) {
		t.Errorf("ChromeTrace has %d X events, want %d (one per trace event)", x, len(res.Trace))
	}
	b, err = macs.ChromeTrace(nil)
	if err != nil || !json.Valid(b) {
		t.Errorf("ChromeTrace(nil) = %s, %v; want a valid document", b, err)
	}
}
