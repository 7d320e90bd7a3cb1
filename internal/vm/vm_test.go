package vm

import (
	"fmt"
	"math"
	"testing"

	"macs/internal/asm"
)

func run(t *testing.T, cfg Config, src string, prime func(*CPU)) (*CPU, Stats) {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	if prime != nil {
		prime(c)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func TestScalarArithmetic(t *testing.T) {
	src := `
	mov #10,s0
	mov #3,s1
	add.w s0,s1,s2
	sub.w s0,s1,s3
	mul.w s0,s1,s4
	div.w s0,s1,s5
	add.w #5,s2
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SInt(2); got != 18 {
		t.Errorf("s2 = %d, want 18 (10+3+5)", got)
	}
	if got := c.SInt(3); got != 7 {
		t.Errorf("s3 = %d, want 7", got)
	}
	if got := c.SInt(4); got != 30 {
		t.Errorf("s4 = %d, want 30", got)
	}
	if got := c.SInt(5); got != 3 {
		t.Errorf("s5 = %d, want 3", got)
	}
}

func TestScalarFloatArithmetic(t *testing.T) {
	src := `
.data a 8 2.5
.data b 8 4.0
	ld.l a,s0
	ld.l b,s1
	add.d s0,s1,s2
	mul.d s0,s1,s3
	sub.d s1,s0,s4
	div.d s1,s0,s5
	neg.d s2,s6
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SFloat(2); got != 6.5 {
		t.Errorf("s2 = %v, want 6.5", got)
	}
	if got := c.SFloat(3); got != 10.0 {
		t.Errorf("s3 = %v, want 10", got)
	}
	if got := c.SFloat(4); got != 1.5 {
		t.Errorf("s4 = %v, want 1.5", got)
	}
	if got := c.SFloat(5); got != 1.6 {
		t.Errorf("s5 = %v, want 1.6", got)
	}
	if got := c.SFloat(6); got != -6.5 {
		t.Errorf("s6 = %v, want -6.5", got)
	}
}

func TestScalarLoop(t *testing.T) {
	// Sum 1..10 with a scalar loop.
	src := `
	mov #0,s0
	mov #1,s1
L1:
	add.w s0,s1,s0
	add.w #1,s1
	le.w s1,#10
	jbrs.t L1
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SInt(0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestBranchSenses(t *testing.T) {
	src := `
	mov #1,s0
	eq.w s0,#2
	jbrs.f L1
	mov #99,s1
L1:
	mov #7,s2
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SInt(1); got != 0 {
		t.Errorf("jbrs.f not taken: s1 = %d, want 0", got)
	}
	if got := c.SInt(2); got != 7 {
		t.Errorf("s2 = %d, want 7", got)
	}
}

func TestVectorAddStore(t *testing.T) {
	src := `
.data a 1024
.data b 1024
.data c 1024
	mov #8,vs
	mov #64,s0
	mov s0,vl
	ld.l a(a0),v0
	ld.l b(a0),v1
	add.d v0,v1,v2
	st.l v2,c(a0)
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		b, _ := m.SymbolAddr("b")
		for k := 0; k < 64; k++ {
			m.WriteF64(a+int64(k*8), float64(k))
			m.WriteF64(b+int64(k*8), 100.0)
		}
	})
	m := cpu.Memory()
	cBase, _ := m.SymbolAddr("c")
	for k := 0; k < 64; k++ {
		got, _ := m.ReadF64(cBase + int64(k*8))
		if got != float64(k)+100 {
			t.Fatalf("c[%d] = %v, want %v", k, got, float64(k)+100)
		}
	}
}

func TestVectorStridedLoad(t *testing.T) {
	src := `
.data a 2048
	mov #16,vs
	mov #8,s0
	mov s0,vl
	ld.l a(a0),v0
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 32; k++ {
			m.WriteF64(a+int64(k*8), float64(k))
		}
	})
	for k := 0; k < 8; k++ {
		if got := cpu.VElem(0, k); got != float64(2*k) {
			t.Errorf("v0[%d] = %v, want %v (stride 2)", k, got, float64(2*k))
		}
	}
}

func TestVectorSumReduction(t *testing.T) {
	src := `
.data a 1024
	mov #8,vs
	mov #100,s0
	mov s0,vl
	ld.l a(a0),v0
	sum.d v0,s1
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 100; k++ {
			m.WriteF64(a+int64(k*8), 1.5)
		}
	})
	if got := cpu.SFloat(1); got != 150 {
		t.Errorf("sum = %v, want 150", got)
	}
}

func TestVectorScalarOperand(t *testing.T) {
	src := `
.data a 1024
.data q 8 2.5
	ld.l q,s1
	mov #8,vs
	mov #16,s0
	mov s0,vl
	ld.l a(a0),v0
	mul.d v0,s1,v1
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 16; k++ {
			m.WriteF64(a+int64(k*8), float64(k))
		}
	})
	for k := 0; k < 16; k++ {
		if got := cpu.VElem(1, k); got != 2.5*float64(k) {
			t.Errorf("v1[%d] = %v, want %v", k, got, 2.5*float64(k))
		}
	}
}

func TestVLClamp(t *testing.T) {
	src := `
	mov #500,s0
	mov s0,vl
	add.d v0,v1,v2
`
	cpu, st := run(t, DefaultConfig(), src, nil)
	_ = cpu
	// VL clamps to 128: the vector add processes 128 elements.
	if st.VectorFlops != 128 {
		t.Errorf("VectorFlops = %d, want 128 (VL clamped)", st.VectorFlops)
	}
}

func TestVLZeroIsNoOp(t *testing.T) {
	src := `
	mov #0,s0
	mov s0,vl
	add.d v0,v1,v2
`
	_, st := run(t, DefaultConfig(), src, nil)
	if st.VectorFlops != 0 {
		t.Errorf("VectorFlops = %d, want 0", st.VectorFlops)
	}
	if st.Chimes != 0 {
		t.Errorf("Chimes = %d, want 0 for VL=0", st.Chimes)
	}
}

// TestFigure2Chaining reproduces the paper's Figure 2: a chained
// ld/add/mul chime of VL=128 takes about 162 cycles; unchained it takes
// about 422.
func TestFigure2Chaining(t *testing.T) {
	src := `
.data a 2048
	mov #8,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
	add.d v0,v1,v2
	mul.d v2,v3,v5
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	// Paper: 162 cycles (plus our small dispatch skew and the scalar
	// prologue of 4 instructions).
	if st.Cycles < 160 || st.Cycles > 175 {
		t.Errorf("chained chime = %d cycles, want about 162 (paper Figure 2)", st.Cycles)
	}
	if st.Chimes != 1 {
		t.Errorf("chimes = %d, want 1", st.Chimes)
	}

	cfg.Rules.Chaining = false
	_, st = run(t, cfg, src, nil)
	if st.Cycles < 410 || st.Cycles > 435 {
		t.Errorf("unchained = %d cycles, want about 422 (paper Figure 2)", st.Cycles)
	}
	if st.Chimes != 3 {
		t.Errorf("unchained chimes = %d, want 3", st.Chimes)
	}
}

// TestSteadyStateChimeCost verifies the tailgating model: repeating the
// paper's chime 2 (ld+mul+add, bubbles 2+1+1) costs VL + sum(B) = 132
// cycles per iteration in steady state (the paper's calibration loop
// measured 133.33).
func TestSteadyStateChimeCost(t *testing.T) {
	mkSrc := func(n int64) string {
		return fmt.Sprintf(`
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #%d,s0
L1:
	ld.l a(a0),v2
	mul.d v2,v1,v0
	add.d v0,v3,v5
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`, n)
	}
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	cycles := func(n int64) int64 {
		p := asm.MustParse(mkSrc(n))
		c := New(cfg)
		if err := c.Load(p); err != nil {
			t.Fatal(err)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	delta := float64(cycles(60)-cycles(10)) / 50
	if delta < 131 || delta > 134 {
		t.Errorf("steady-state chime cost = %.2f cycles, want 132 (paper Eq. 13)", delta)
	}
}

func TestScalarVectorPortConflict(t *testing.T) {
	// A scalar load right after a vector load must wait for the vector
	// memory stream to drain (single port per CPU).
	src := `
.data a 2048
.data q 8 1.0
	mov #8,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
	ld.l q,s1
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	if st.PortConflicts == 0 {
		t.Error("scalar load should conflict with vector stream")
	}
	// The scalar load completes only after the vector load drains (~140).
	if st.Cycles < 140 {
		t.Errorf("cycles = %d, want >= 140 (port serialization)", st.Cycles)
	}
}

func TestBankConflictStride(t *testing.T) {
	// Stride of 32 words hits one bank: the stream stalls BankCycle-1
	// cycles per element.
	src := `
.data a 65536
	mov #256,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	if st.MemStalls < 800 {
		t.Errorf("same-bank stride stalls = %d, want about 127*7", st.MemStalls)
	}
	cfg.BankConflicts = false
	_, st2 := run(t, cfg, src, nil)
	if st2.MemStalls != 0 {
		t.Errorf("bank conflicts disabled: stalls = %d, want 0", st2.MemStalls)
	}
}

func TestRefreshStalls(t *testing.T) {
	// A long run of unit-stride vector loads crosses refresh windows.
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #20,s0
L1:
	ld.l a(a0),v0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	cfg := DefaultConfig()
	_, st := run(t, cfg, src, nil)
	if st.MemStalls == 0 {
		t.Error("expected refresh stalls in a long memory stream")
	}
	// Roughly 8 cycles per 400: near 2%.
	frac := float64(st.MemStalls) / float64(st.Cycles)
	if frac < 0.005 || frac > 0.035 {
		t.Errorf("refresh stall fraction = %.3f, want near 0.02", frac)
	}
	cfg.RefreshStalls = false
	_, st2 := run(t, cfg, src, nil)
	if st2.MemStalls != 0 {
		t.Errorf("refresh disabled: stalls = %d, want 0", st2.MemStalls)
	}
}

func TestMemSlowdownIncreasesCycles(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #10,s0
L1:
	ld.l a(a0),v0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, base := run(t, cfg, src, nil)
	cfg.MemSlowdown = 1.5
	_, slow := run(t, cfg, src, nil)
	ratio := float64(slow.Cycles) / float64(base.Cycles)
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("MemSlowdown 1.5 gave cycle ratio %.2f, want about 1.5", ratio)
	}
}

func TestTraceEvents(t *testing.T) {
	src := `
.data a 2048
	mov #8,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
	add.d v0,v1,v2
`
	cfg := DefaultConfig()
	cfg.Trace = true
	cpu, _ := run(t, cfg, src, nil)
	tr := cpu.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d events, want 2", len(tr))
	}
	ld, add := tr[0], tr[1]
	if ld.Chime != 1 || add.Chime != 1 {
		t.Errorf("both should be chime 1: got %d, %d", ld.Chime, add.Chime)
	}
	if add.Start < ld.FirstResult {
		t.Errorf("chained add starts at %d, before producer first result %d", add.Start, ld.FirstResult)
	}
	if ld.Finish <= ld.Start || add.Finish <= add.Start {
		t.Error("finish must follow start")
	}
}

// lfk1Program is a hand-written complete LFK1 (hydro fragment):
// X(k) = Q + Y(k)*(R*ZX(k+10) + T*ZX(k+11)), k = 1..n, with n = 1001.
const lfk1Program = `
.data x 8192
.data y 8192
.data zx 8192
.data qc 8 0.5
.data rc 8 0.25
.data tc 8 0.125
main:
	ld.l qc,s7
	ld.l rc,s1
	ld.l tc,s3
	mov #0,a5
	mov #1001,s0
	mov #8,vs
L7:
	mov s0,vl
	ld.l zx+80(a5),v0
	mul.d v0,s1,v1
	ld.l zx+88(a5),v2
	mul.d v2,s3,v0
	add.d v1,v0,v3
	ld.l y(a5),v1
	mul.d v1,v3,v2
	add.d v2,s7,v0
	st.l v0,x(a5)
	add.w #1024,a5
	sub.w #128,s0
	lt.w #0,s0
	jbrs.t L7
`

func primeLFK1(c *CPU) {
	m := c.Memory()
	y, _ := m.SymbolAddr("y")
	zx, _ := m.SymbolAddr("zx")
	for k := 0; k < 1024; k++ {
		m.WriteF64(y+int64(k*8), 0.001*float64(k)+0.5)
		m.WriteF64(zx+int64(k*8), 0.002*float64(k)+0.25)
	}
}

func TestLFK1Functional(t *testing.T) {
	cpu, _ := run(t, DefaultConfig(), lfk1Program, primeLFK1)
	m := cpu.Memory()
	x, _ := m.SymbolAddr("x")
	q, r, tc := 0.5, 0.25, 0.125
	yv := func(k int) float64 { return 0.001*float64(k) + 0.5 }
	zxv := func(k int) float64 { return 0.002*float64(k) + 0.25 }
	for k := 0; k < 1001; k++ {
		want := q + yv(k)*(r*zxv(k+10)+tc*zxv(k+11))
		got, _ := m.ReadF64(x + int64(k*8))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", k, got, want)
		}
	}
}

func TestLFK1TimingAboveMACSBound(t *testing.T) {
	// The measured CPL must sit at or above the MACS bound (4.200 CPL)
	// and within a plausible distance (paper measured 4.26).
	_, st := run(t, DefaultConfig(), lfk1Program, primeLFK1)
	cpl := float64(st.Cycles) / 1001 // CPL = cycles per high-level iteration
	if cpl < 4.20 {
		t.Errorf("measured CPL %.3f below MACS bound 4.200", cpl)
	}
	if cpl > 4.60 {
		t.Errorf("measured CPL %.3f too far above bound (paper: 4.26)", cpl)
	}
	// 4 chimes per strip, 8 strips.
	if st.Chimes != 32 {
		t.Errorf("chimes = %d, want 32", st.Chimes)
	}
}

func TestStatsCounters(t *testing.T) {
	_, st := run(t, DefaultConfig(), lfk1Program, primeLFK1)
	// 5 FP vector ops per strip iteration covering 1001 elements each.
	if st.VectorFlops != 5*1001 {
		t.Errorf("VectorFlops = %d, want %d", st.VectorFlops, 5*1001)
	}
	if st.VectorElems != 4*1001 {
		t.Errorf("VectorElems = %d, want %d", st.VectorElems, 4*1001)
	}
	if st.ScalarInstrs == 0 || st.VectorInstrs != 9*8 {
		t.Errorf("instr mix: scalar=%d vector=%d, want vector=72", st.ScalarInstrs, st.VectorInstrs)
	}
}

func TestExecutionLimits(t *testing.T) {
	src := `
L1:
	jmp L1
`
	cfg := DefaultConfig()
	cfg.MaxInstrs = 100
	p := asm.MustParse(src)
	c := New(cfg)
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("infinite loop should hit the instruction limit")
	}
}

func TestHalt(t *testing.T) {
	src := `
	mov #5,s0
	halt
	mov #9,s0
`
	c, _ := run(t, DefaultConfig(), src, nil)
	if got := c.SInt(0); got != 5 {
		t.Errorf("s0 = %d, want 5 (halt stops execution)", got)
	}
}

func TestUndefinedSymbolAtRuntime(t *testing.T) {
	// Validate catches undefined symbols at load; runtime errors surface
	// for out-of-range addresses.
	src := `
.data a 16
	mov #100000000,a0
	ld.l a(a0),s0
`
	p := asm.MustParse(src)
	c := New(DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("out-of-range access should error")
	}
}

func TestNegativeStride(t *testing.T) {
	src := `
.data a 1024
	mov #-8,vs
	mov #4,s0
	mov s0,vl
	mov #56,a0
	ld.l a(a0),v0
`
	cpu, _ := run(t, DefaultConfig(), src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 8; k++ {
			m.WriteF64(a+int64(k*8), float64(k))
		}
	})
	// Elements 7,6,5,4 in reverse.
	for k := 0; k < 4; k++ {
		if got := cpu.VElem(0, k); got != float64(7-k) {
			t.Errorf("v0[%d] = %v, want %v", k, got, float64(7-k))
		}
	}
}

func TestPairRuleSerializesInVM(t *testing.T) {
	// Two chimes forced by the pair read rule take about twice as long as
	// one chained chime.
	src := `
	mov #128,s0
	mov s0,vl
	add.d v2,v6,v6
	mul.d v6,v1,v4
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	if st.Chimes != 2 {
		t.Fatalf("chimes = %d, want 2 (pair rule)", st.Chimes)
	}
	// mul waits for the add to complete: at least 2*128 cycles.
	if st.Cycles < 256 {
		t.Errorf("cycles = %d, want >= 256 (serialized chimes)", st.Cycles)
	}
	cfg.Rules.PairRule = false
	_, st2 := run(t, cfg, src, nil)
	if st2.Chimes != 1 {
		t.Fatalf("pair rule off: chimes = %d, want 1", st2.Chimes)
	}
	if st2.Cycles >= st.Cycles {
		t.Errorf("pair rule off should be faster: %d >= %d", st2.Cycles, st.Cycles)
	}
}

func TestDispatchAfterVectorScalarResult(t *testing.T) {
	// A scalar store of a reduction result waits for the reduction.
	src := `
.data a 2048
.data out 8
	mov #8,vs
	mov #128,s0
	mov s0,vl
	ld.l a(a0),v0
	sum.d v0,s1
	st.l s1,out
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	cpu, st := run(t, cfg, src, func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 128; k++ {
			m.WriteF64(a+int64(k*8), 2.0)
		}
	})
	m := cpu.Memory()
	out, _ := m.SymbolAddr("out")
	got, _ := m.ReadF64(out)
	if got != 256 {
		t.Errorf("stored sum = %v, want 256", got)
	}
	// The reduction chains off the load and drains at Z=1.35 per element:
	// the dependent store cannot complete before ~190 cycles.
	if st.Cycles < 190 {
		t.Errorf("cycles = %d, want >= 190 (reduction drain)", st.Cycles)
	}
}

// TestStridedProgramPinned pins the answer for a program with same-bank
// strided streams, chaining and a reduction: its cycles, memory stalls
// and reduction result, and conserved attribution. The stream-stall
// pricer behind these cycles is checked against the element walk in
// internal/mem.
func TestStridedProgramPinned(t *testing.T) {
	src := `
.data a 4096
.data b 4096
	mov #256,vs
	mov #128,s2
	mov s2,vl
	mov #4,s0
L1:
	ld.l a(a0),v0
	add.d v0,v1,v2
	mul.d v2,v0,v3
	st.l v3,b(a0)
	sum.d v2,s5
	add.w #8,a0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	prime := func(c *CPU) {
		m := c.Memory()
		a, _ := m.SymbolAddr("a")
		for k := 0; k < 256; k++ {
			if err := m.WriteF64(a+int64(k*8), 1.5+float64(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, st := run(t, DefaultConfig(), src, prime)
	if st.Cycles != 8498 || st.MemStalls != 7255 {
		t.Errorf("cycles %d, memory stalls %d; want 8498 and 7255", st.Cycles, st.MemStalls)
	}
	if err := st.Attr.Conserved(st.Cycles); err != nil {
		t.Fatal(err)
	}
	if got := c.SFloat(5); got != 932 {
		t.Errorf("s5 = %v, want 932", got)
	}
}
