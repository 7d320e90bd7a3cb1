package lfk

import (
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/ftn"
	"macs/internal/vectorize"
	"macs/internal/vm"
)

func TestAllKernelsListed(t *testing.T) {
	ks := All()
	if len(ks) != 10 {
		t.Fatalf("got %d kernels, want 10", len(ks))
	}
	wantIDs := []int{1, 2, 3, 4, 6, 7, 8, 9, 10, 12}
	for i, k := range ks {
		if k.ID != wantIDs[i] {
			t.Errorf("kernel %d has ID %d, want %d", i, k.ID, wantIDs[i])
		}
		if k.Elements <= 0 {
			t.Errorf("lfk%d: Elements = %d", k.ID, k.Elements)
		}
		if k.Paper.MA.Flops() == 0 {
			t.Errorf("lfk%d: missing paper MA workload", k.ID)
		}
	}
	if _, err := ByID(5); err == nil {
		t.Error("ByID(5) should fail (not in the case study)")
	}
	if k, err := ByID(8); err != nil || k.ID != 8 {
		t.Errorf("ByID(8) = %v, %v", k, err)
	}
}

// TestMAWorkloadsMatchPaper checks the MA analyzer against the paper's
// Table 2/3 counts for every kernel.
func TestMAWorkloadsMatchPaper(t *testing.T) {
	for _, k := range All() {
		w, err := compiler.MAWorkload(k.Source)
		if err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
			continue
		}
		if w != k.Paper.MA {
			t.Errorf("lfk%d: MA workload = %+v, want %+v", k.ID, w, k.Paper.MA)
		}
	}
}

// TestKernelsCompileAndVectorize checks that every kernel compiles and
// its inner loop is vectorized.
func TestKernelsCompileAndVectorize(t *testing.T) {
	for _, k := range All() {
		c, err := Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
			continue
		}
		if _, ok := asm.InnerVectorLoop(c.Program); !ok {
			t.Errorf("lfk%d: no vectorized inner loop", k.ID)
		}
	}
}

// TestKernelsFunctionalCorrectness runs every kernel on the simulator and
// validates every output against the Go reference.
func TestKernelsFunctionalCorrectness(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := Compile(k, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			_, cpu, err := c.Run(vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(cpu); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScalarCompilationCorrectness validates the ForceScalar baseline too
// (every kernel must compute identical results without the VP).
func TestScalarCompilationCorrectness(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			opts := compiler.DefaultOptions()
			opts.ForceScalar = true
			c, err := Compile(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, cpu, err := c.Run(vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if st.VectorInstrs != 0 {
				t.Errorf("scalar build used %d vector instrs", st.VectorInstrs)
			}
			if err := c.Validate(cpu); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMeasuredAboveMACSBound checks the core shape result: for every
// kernel, measured CPL >= t_MACS >= t_MAC >= t_MA.
func TestMeasuredAboveMACSBound(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := Compile(k, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			loop, ok := asm.InnerVectorLoop(c.Program)
			if !ok {
				t.Fatal("no vector loop")
			}
			a := core.Analyze(k.Paper.MA, loop.Body, 128, core.DefaultRules())
			st, _, err := c.Run(vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			measured := k.CPL(st.Cycles)
			if a.TMA > a.TMAC+1e-9 {
				t.Errorf("t_MA (%.3f) > t_MAC (%.3f)", a.TMA, a.TMAC)
			}
			if a.TMAC > a.MACS.CPL+1e-9 {
				t.Errorf("t_MAC (%.3f) > t_MACS (%.3f)", a.TMAC, a.MACS.CPL)
			}
			if measured < a.MACS.CPL-1e-9 {
				t.Errorf("measured CPL %.3f below t_MACS %.3f", measured, a.MACS.CPL)
			}
			t.Logf("lfk%d: MA=%.3f MAC=%.3f MACS=%.3f measured=%.3f (paper CPF x flops: MA=%.3f MACS=%.3f tp=%.3f)",
				k.ID, a.TMA, a.TMAC, a.MACS.CPL, measured,
				k.Paper.TMA*float64(k.Paper.MA.Flops()),
				k.Paper.TMACS*float64(k.Paper.MA.Flops()),
				k.Paper.TP*float64(k.Paper.MA.Flops()))
		})
	}
}

// TestMACWorkloadShape: the compiled MAC workload must dominate the MA
// workload (the compiler only adds operations).
func TestMACWorkloadShape(t *testing.T) {
	for _, k := range All() {
		c, err := Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
			continue
		}
		loop, _ := asm.InnerVectorLoop(c.Program)
		mac := core.WorkloadFromAssembly(loop.Body)
		ma := k.Paper.MA
		if mac.Loads < ma.Loads || mac.Stores < ma.Stores || mac.FA < ma.FA || mac.FM < ma.FM {
			t.Errorf("lfk%d: MAC %+v does not dominate MA %+v", k.ID, mac, ma)
		}
		t.Logf("lfk%d: MAC=%+v MA=%+v", k.ID, mac, ma)
	}
}

// TestInnerLoopsVectorizable double-checks the vectorizer accepts the
// inner loop of every kernel directly.
func TestInnerLoopsVectorizable(t *testing.T) {
	for _, k := range All() {
		p, err := ftn.Parse(k.Source)
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		loop, ok := compiler.InnerLoop(p)
		if !ok {
			t.Fatalf("lfk%d: no loop", k.ID)
		}
		if _, err := vectorize.Vectorize(p, loop); err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
		}
	}
}

func TestCPLCPFConversions(t *testing.T) {
	k := LFK1()
	// 1001 iterations, 5 flops each.
	if got := k.CPL(1001 * 4); got != 4 {
		t.Errorf("CPL = %v, want 4", got)
	}
	if got := k.CPF(1001 * 5); got != 1 {
		t.Errorf("CPF = %v, want 1", got)
	}
	if k.FlopsPerIteration() != 5 {
		t.Errorf("flops = %d, want 5", k.FlopsPerIteration())
	}
}

func TestLFK2ElementCount(t *testing.T) {
	k := LFK2()
	// Halving cascade from 101: 50+25+12+6+3 elements until II <= 1.
	if k.Elements != 96 && k.Elements != 97 {
		t.Errorf("LFK2 elements = %d, want 96..97 (halving cascade)", k.Elements)
	}
}

func TestDeterministicInputs(t *testing.T) {
	a, b := LFK1(), LFK1()
	for i := range a.Arrays["Y"] {
		if a.Arrays["Y"][i] != b.Arrays["Y"][i] {
			t.Fatal("inputs are not deterministic")
		}
	}
	if gen(1, 5) != gen(1, 5) {
		t.Error("gen not deterministic")
	}
	lo, hi := 2.0, 0.0
	for i := 0; i < 1000; i++ {
		v := gen(3, i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 0.5 || hi >= 1.5 {
		t.Errorf("gen range [%v, %v], want within [0.5, 1.5)", lo, hi)
	}
}

// TestInterpreterMatchesReferences is the three-way agreement check: the
// AST interpreter, the hand-written Go references, and (via the other
// tests) the compiled-and-simulated execution all compute the same
// results for every kernel.
func TestInterpreterMatchesReferences(t *testing.T) {
	for _, k := range append(All(), Excluded()...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			p, err := ftn.Parse(k.Source)
			if err != nil {
				t.Fatal(err)
			}
			env := ftn.NewEnv(p)
			for name, v := range k.Ints {
				env.Ints[name] = v
			}
			for name, v := range k.Reals {
				env.Reals[name][0] = v
			}
			for name, vals := range k.Arrays {
				copy(env.Reals[name], vals)
			}
			if err := ftn.Interpret(p, env); err != nil {
				t.Fatal(err)
			}
			want := k.Reference(k)
			for _, name := range k.Outputs {
				expect := want[name]
				got := env.Reals[name]
				for i, w := range expect {
					if !ftn.CloseEnough(got[i], w) {
						t.Fatalf("%s(%d): interpreter %v, reference %v", name, i+1, got[i], w)
					}
				}
			}
		})
	}
}

// TestInputsRefuseArrayOutgrowingDeclaration: an LFK whose input array
// is longer than its declaration is refused before the run, instead of
// being written on over the variables placed after it. LFK1 declares
// Y(2001).
func TestInputsRefuseArrayOutgrowingDeclaration(t *testing.T) {
	k := *LFK1()
	k.Arrays = map[string][]float64{"Y": make([]float64, 2002)}
	c, err := Compile(&k, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const want = `inputs: array "Y" has 2002 elements but is declared with 2001`
	if _, _, err := c.Run(vm.DefaultConfig()); err == nil || err.Error() != want {
		t.Errorf("run: %v, want %q", err, want)
	}
	if err := k.Check(c.Program); err == nil || err.Error() != want {
		t.Errorf("Check: %v, want %q", err, want)
	}
}
