package vm

import (
	"strings"
	"testing"

	"macs/internal/asm"
	"macs/internal/isa"
)

// runErr runs a source expecting an error containing want.
func runErr(t *testing.T, src, want string) {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := New(DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err = c.Run()
	if err == nil {
		t.Fatalf("expected error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestScalarIntegerOps(t *testing.T) {
	src := `
	mov #12,s0
	mov #10,s1
	and.w s0,s1,s2
	or.w s0,s1,s3
	shf.w s0,#2,s4
	neg.w s0,s5
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SInt(2); got != 8 {
		t.Errorf("and = %d, want 8", got)
	}
	if got := c.SInt(3); got != 14 {
		t.Errorf("or = %d, want 14", got)
	}
	if got := c.SInt(4); got != 48 {
		t.Errorf("shl = %d, want 48", got)
	}
	if got := c.SInt(5); got != -12 {
		t.Errorf("neg = %d, want -12", got)
	}
}

func TestShiftRight(t *testing.T) {
	c, _ := run(t, DefaultConfig(), "\tmov #48,s0\n\tshf.w s0,#-2,s1", nil)
	if got := c.SInt(1); got != 12 {
		t.Errorf("shr = %d, want 12", got)
	}
}

func TestIntegerDivisionByZero(t *testing.T) {
	runErr(t, "\tmov #5,s0\n\tmov #0,s1\n\tdiv.w s0,s1,s2", "division by zero")
}

func TestFloatCompares(t *testing.T) {
	src := `
.data a 8 1.5
.data b 8 2.5
	ld.l a,s0
	ld.l b,s1
	lt.d s0,s1
	jbrs.f BAD
	ge.d s1,s0
	jbrs.f BAD
	eq.d s0,s0
	jbrs.f BAD
	ne.d s0,s1
	jbrs.f BAD
	le.d s0,s0
	jbrs.f BAD
	gt.d s1,s0
	jbrs.f BAD
	mov #1,s7
	halt
BAD:
	mov #0,s7
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if c.SInt(7) != 1 {
		t.Error("float comparison chain failed")
	}
}

func TestVectorSqrt(t *testing.T) {
	src := `
	mov #4,s0
	mov s0,vl
	sqrt.d v0,v1
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		c.SetV(0, []float64{4, 9, 16, 25})
	})
	want := []float64{2, 3, 4, 5}
	for k, w := range want {
		if got := cpu.VElem(1, k); got != w {
			t.Errorf("sqrt[%d] = %v, want %v", k, got, w)
		}
	}
}

func TestVectorNegAliasing(t *testing.T) {
	src := `
	mov #4,s0
	mov s0,vl
	neg.d v0,v0
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		c.SetV(0, []float64{1, -2, 3, -4})
	})
	want := []float64{-1, 2, -3, 4}
	for k, w := range want {
		if got := cpu.VElem(0, k); got != w {
			t.Errorf("neg[%d] = %v, want %v", k, got, w)
		}
	}
}

func TestVectorMovBroadcast(t *testing.T) {
	src := `
.data q 8 7.5
	ld.l q,s1
	mov #4,s0
	mov s0,vl
	mov.d s1,v0
`
	cpu, _ := run(t, DefaultConfig(), src, nil)
	for k := 0; k < 4; k++ {
		if got := cpu.VElem(0, k); got != 7.5 {
			t.Errorf("broadcast[%d] = %v", k, got)
		}
	}
}

func TestVectorDivide(t *testing.T) {
	src := `
	mov #4,s0
	mov s0,vl
	div.d v0,v1,v2
`
	cpu, st := run(t, DefaultConfig(), src, func(c *CPU) {
		c.SetV(0, []float64{10, 20, 30, 40})
		c.SetV(1, []float64{2, 4, 5, 8})
	})
	want := []float64{5, 5, 6, 5}
	for k, w := range want {
		if got := cpu.VElem(2, k); got != w {
			t.Errorf("div[%d] = %v, want %v", k, got, w)
		}
	}
	// Divide runs at Z = 4.
	if st.Cycles < 4*4 {
		t.Errorf("divide cycles = %d, want >= 16", st.Cycles)
	}
}

func TestScalarMovD(t *testing.T) {
	src := `
.data a 8 3.25
	ld.l a,s0
	mov.d s0,s1
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SFloat(1); got != 3.25 {
		t.Errorf("mov.d = %v", got)
	}
}

// TestUndefinedRuntimeErrors: an instruction with no form the simulator
// executes is refused when the program loads (isa.Decode), never met
// mid-run.
func TestUndefinedRuntimeErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"\tsum.w s0,s1", "vm: instr 0 (sum.w s0,s1): sum has no scalar form"},
		{"\tmov #1,s0,s1", "vm: instr 0 (mov #1,s0,s1): mov needs 2 operands"},
	} {
		err := New(DefaultConfig()).Load(asm.MustParse(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
}

func TestPipeUtilizationStats(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #20,s0
L1:
	ld.l a(a0),v0
	mul.d v0,v1,v2
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	_, st := run(t, DefaultConfig(), src, nil)
	ldu := st.Utilization(isa.PipeLoadStore)
	mulu := st.Utilization(isa.PipeMul)
	addu := st.Utilization(isa.PipeAdd)
	if ldu < 0.8 || ldu > 1.0 {
		t.Errorf("load/store utilization = %.2f, want near 1.0", ldu)
	}
	if mulu < 0.8 {
		t.Errorf("multiply utilization = %.2f, want near 1.0 (chained)", mulu)
	}
	if addu != 0 {
		t.Errorf("add pipe utilization = %.2f, want 0", addu)
	}
}

func TestStatsCyclesMonotone(t *testing.T) {
	// More iterations, more cycles.
	mk := func(n int) int64 {
		src := strings.Replace(`
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #N,s0
L1:
	ld.l a(a0),v0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`, "N", strings.Repeat("1", 1), 1) // placeholder; patched below
		_ = src
		p := asm.MustParse(strings.Replace(src, "#1,s0", "#"+itoa(n)+",s0", 1))
		c := New(DefaultConfig())
		if err := c.Load(p); err != nil {
			t.Fatal(err)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	if !(mk(5) < mk(10) && mk(10) < mk(20)) {
		t.Error("cycles not monotone in iterations")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
