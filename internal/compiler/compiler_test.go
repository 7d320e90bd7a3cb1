package compiler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/ftn"
	"macs/internal/vm"
)

const lfk1Src = `
PROGRAM LFK1
REAL X(2001), Y(2001), ZX(2048)
REAL Q, R, T
INTEGER N, K
DO K = 1, N
  X(K) = Q + Y(K)*(R*ZX(K+10) + T*ZX(K+11))
ENDDO
END
`

// runCompiled compiles, primes and runs a program on the simulator.
func runCompiled(t *testing.T, src string, prime func(*vm.CPU)) (*vm.CPU, vm.Stats) {
	t.Helper()
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cpu := vm.New(vm.DefaultConfig())
	if err := cpu.Load(prog); err != nil {
		t.Fatal(err)
	}
	if prime != nil {
		prime(cpu)
	}
	st, err := cpu.Run()
	if err != nil {
		t.Fatalf("run failed: %v\nassembly:\n%s", err, prog)
	}
	return cpu, st
}

func setF(t *testing.T, c *vm.CPU, name string, idx int, v float64) {
	t.Helper()
	base, ok := c.Memory().SymbolAddr(DataSym(name))
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	if err := c.Memory().WriteF64(base+int64(idx*8), v); err != nil {
		t.Fatal(err)
	}
}

func getF(t *testing.T, c *vm.CPU, name string, idx int) float64 {
	t.Helper()
	base, ok := c.Memory().SymbolAddr(DataSym(name))
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	v, err := c.Memory().ReadF64(base + int64(idx*8))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func setI(t *testing.T, c *vm.CPU, name string, v int64) {
	t.Helper()
	base, ok := c.Memory().SymbolAddr(DataSym(name))
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	if err := c.Memory().WriteI64(base, v); err != nil {
		t.Fatal(err)
	}
}

func TestCompileLFK1EndToEnd(t *testing.T) {
	const n = 1001
	q, r, tt := 0.5, 0.25, 0.125
	yv := func(k int) float64 { return 0.001*float64(k) + 0.5 }
	zxv := func(k int) float64 { return 0.002*float64(k) + 0.25 }
	cpu, st := runCompiled(t, lfk1Src, func(c *vm.CPU) {
		setI(t, c, "N", n)
		setF(t, c, "Q", 0, q)
		setF(t, c, "R", 0, r)
		setF(t, c, "T", 0, tt)
		for k := 0; k < 2048; k++ {
			if k < 2001 {
				setF(t, c, "Y", k, yv(k))
			}
			setF(t, c, "ZX", k, zxv(k))
		}
	})
	for k := 0; k < n; k++ {
		want := q + yv(k)*(r*zxv(k+10)+tt*zxv(k+11))
		got := getF(t, cpu, "X", k)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("X(%d) = %v, want %v", k+1, got, want)
		}
	}
	// Timing: the inner loop runs 8 strips of 4 chimes.
	if st.Chimes != 32 {
		t.Errorf("chimes = %d, want 32", st.Chimes)
	}
	cpl := float64(st.Cycles) / n
	if cpl < 4.20 || cpl > 4.65 {
		t.Errorf("measured CPL = %.3f, want in [4.20, 4.65] (paper: 4.26, bound 4.20)", cpl)
	}
}

func TestCompiledLFK1MatchesPaperStructure(t *testing.T) {
	prog, err := Compile(lfk1Src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := asm.InnerVectorLoop(prog)
	if !ok {
		t.Fatal("no vectorized inner loop in compiled LFK1")
	}
	mac := core.WorkloadFromAssembly(loop.Body)
	want := core.Workload{FA: 2, FM: 3, Loads: 3, Stores: 1}
	if mac != want {
		t.Fatalf("MAC workload = %+v, want %+v\n%s", mac, want, prog)
	}
	chimes := core.Partition(loop.Body, core.DefaultRules())
	if len(chimes) != 4 {
		t.Fatalf("chimes = %d, want 4 (paper §3.5)\n%s", len(chimes), prog)
	}
	res := core.MACSBound(loop.Body, 128, core.DefaultRules())
	if math.Abs(res.CPL-4.200) > 0.005 {
		t.Errorf("t_MACS = %.4f CPL, want 4.200\n%s", res.CPL, prog)
	}
}

func TestMAWorkloadHelper(t *testing.T) {
	w, err := MAWorkload(lfk1Src)
	if err != nil {
		t.Fatal(err)
	}
	if w != (core.Workload{FA: 2, FM: 3, Loads: 2, Stores: 1}) {
		t.Errorf("MA workload = %+v", w)
	}
}

func TestCompileReductionLoop(t *testing.T) {
	src := `
PROGRAM DOT
REAL Z(2048), X(2048), Q
INTEGER N, K
DO K = 1, N
  Q = Q + Z(K)*X(K)
ENDDO
END
`
	const n = 1001
	cpu, _ := runCompiled(t, src, func(c *vm.CPU) {
		setI(t, c, "N", n)
		setF(t, c, "Q", 0, 10.0)
		for k := 0; k < n; k++ {
			setF(t, c, "Z", k, float64(k%7)+0.5)
			setF(t, c, "X", k, float64(k%5)+0.25)
		}
	})
	want := 10.0
	for k := 0; k < n; k++ {
		want += (float64(k%7) + 0.5) * (float64(k%5) + 0.25)
	}
	got := getF(t, cpu, "Q", 0)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("Q = %v, want %v", got, want)
	}
}

func TestCompileSecondaryInduction(t *testing.T) {
	src := `
PROGRAM SECIND
REAL X(2048), Y(2048), OUT(2048)
INTEGER N, J, LW
LW = 3
CDIR$ IVDEP
DO J = 5, N, 5
  OUT(J) = X(LW) + Y(J)
  LW = LW + 1
ENDDO
END
`
	const n = 500
	cpu, _ := runCompiled(t, src, func(c *vm.CPU) {
		setI(t, c, "N", n)
		for k := 0; k < 2048; k++ {
			setF(t, c, "X", k, float64(k))
			setF(t, c, "Y", k, 1000*float64(k))
		}
	})
	lw := 3
	for j := 5; j <= n; j += 5 {
		want := float64(lw-1) + 1000*float64(j-1)
		got := getF(t, cpu, "OUT", j-1)
		if got != want {
			t.Fatalf("OUT(%d) = %v, want %v", j, got, want)
		}
		lw++
	}
	// LW updated past the loop.
	base, _ := cpu.Memory().SymbolAddr(DataSym("LW"))
	v, _ := cpu.Memory().ReadI64(base)
	if int(v) != lw {
		t.Errorf("LW after loop = %d, want %d", v, lw)
	}
}

func TestCompileOuterScalarLoop(t *testing.T) {
	src := `
PROGRAM NEST
REAL A(64,8)
INTEGER I, J, N
DO J = 1, 8
DO I = 1, N
  A(I,J) = 2.0*A(I,J)
ENDDO
ENDDO
END
`
	const n = 64
	cpu, _ := runCompiled(t, src, func(c *vm.CPU) {
		setI(t, c, "N", n)
		for j := 0; j < 8; j++ {
			for i := 0; i < n; i++ {
				setF(t, c, "A", j*64+i, float64(j*64+i))
			}
		}
	})
	for j := 0; j < 8; j++ {
		for i := 0; i < n; i++ {
			want := 2 * float64(j*64+i)
			if got := getF(t, cpu, "A", j*64+i); got != want {
				t.Fatalf("A(%d,%d) = %v, want %v", i+1, j+1, got, want)
			}
		}
	}
}

func TestCompileGotoLoop(t *testing.T) {
	src := `
PROGRAM HALVE
INTEGER II, N, COUNT
II = N
COUNT = 0
100 CONTINUE
II = II / 2
COUNT = COUNT + 1
IF (II .GT. 1) GOTO 100
END
`
	cpu, _ := runCompiled(t, src, func(c *vm.CPU) {
		setI(t, c, "N", 64)
	})
	base, _ := cpu.Memory().SymbolAddr(DataSym("COUNT"))
	v, _ := cpu.Memory().ReadI64(base)
	if v != 6 {
		t.Errorf("COUNT = %d, want 6", v)
	}
}

func TestCompileScalarFallback(t *testing.T) {
	// A genuine recurrence cannot vectorize; the compiler must fall back
	// to scalar code and still compute correctly.
	src := `
PROGRAM REC
REAL A(256)
INTEGER I, N
DO I = 2, N
  A(I) = A(I-1) + 1.0
ENDDO
END
`
	const n = 100
	cpu, st := runCompiled(t, src, func(c *vm.CPU) {
		setI(t, c, "N", n)
		setF(t, c, "A", 0, 5.0)
	})
	if st.VectorInstrs != 0 {
		t.Errorf("recurrence loop used %d vector instructions", st.VectorInstrs)
	}
	for i := 1; i < n; i++ {
		want := 5.0 + float64(i)
		if got := getF(t, cpu, "A", i); got != want {
			t.Fatalf("A(%d) = %v, want %v", i+1, got, want)
		}
	}
}

func TestForceScalarOption(t *testing.T) {
	opts := DefaultOptions()
	opts.ForceScalar = true
	prog, err := Compile(lfk1Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range prog.Instrs {
		if in.IsVector() {
			t.Fatalf("ForceScalar emitted vector instruction %s", in)
		}
	}
}

func TestCompileZeroTripLoop(t *testing.T) {
	cpu, st := runCompiled(t, lfk1Src, func(c *vm.CPU) {
		setI(t, c, "N", 0)
	})
	_ = cpu
	if st.VectorInstrs != 0 {
		// The accumulator-free loop should skip entirely.
		t.Errorf("zero-trip loop executed %d vector instrs", st.VectorInstrs)
	}
}

func TestInnerLoopSelection(t *testing.T) {
	p := mustParse(t, `
PROGRAM P
REAL A(64)
INTEGER I, J, N
DO I = 1, N
DO J = 1, N
  A(J) = A(J) + 1.0
ENDDO
ENDDO
END
`)
	loop, ok := InnerLoop(p)
	if !ok || loop.Var != "J" {
		t.Fatalf("InnerLoop = %v, %v; want the J loop", loop, ok)
	}
}

func mustParse(t *testing.T, src string) *ftn.Program {
	t.Helper()
	p, err := ftn.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompileLeavesASTUntouched: code generation only reads the syntax
// tree, so the facade can parse a source once and take both the
// compiled program and the MA workload from the same tree. A tree that
// went through CompileProgram must equal a fresh parse of its source,
// for vector, short-strip and scalar code generation.
func TestCompileLeavesASTUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	srcs := []string{lfk1Src}
	for i := 0; i < 60; i++ {
		srcs = append(srcs, genKernel(r))
	}
	short := DefaultOptions()
	short.VL = 16
	scalar := DefaultOptions()
	scalar.ForceScalar = true
	for i, src := range srcs {
		for _, opts := range []Options{DefaultOptions(), short, scalar} {
			lowered, err := ftn.Parse(src)
			if err != nil {
				t.Fatalf("source %d: %v", i, err)
			}
			fresh, _ := ftn.Parse(src)
			if _, err := CompileProgram(lowered, opts); err != nil {
				continue
			}
			if !reflect.DeepEqual(lowered, fresh) {
				t.Fatalf("source %d: CompileProgram(%+v) changed the syntax tree\n%s", i, opts, src)
			}
		}
	}
}
