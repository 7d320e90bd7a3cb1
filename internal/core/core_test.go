package core

import (
	"math"
	"testing"

	"macs/internal/asm"
	"macs/internal/isa"
)

// lfk1Body is the paper's compiled inner loop for LFK1 (§3.5).
const lfk1Src = `
.data space1 65536
L7:
	mov s0,vl
	ld.l space1+40120(a5),v0
	mul.d v0,s1,v1
	ld.l space1+40128(a5),v2
	mul.d v2,s3,v0
	add.d v1,v0,v3
	ld.l space1+32032(a5),v1
	mul.d v1,v3,v2
	add.d v2,s7,v0
	st.l v0,space1+24024(a5)
	add.w #1024,a5
	sub.w #128,s0
	lt.w #0,s0
	jbrs.t L7
`

func lfk1Body(t *testing.T) []isa.Instr {
	t.Helper()
	p, err := asm.Parse(lfk1Src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Instrs
}

// lfk1MA is the high-level LFK1 workload: X(k) = Q + Y(k)*(R*ZX(k+10) +
// T*ZX(k+11)) has 2 adds, 3 multiplies; with perfect index analysis the two
// ZX references share one load stream, plus Y, plus the store of X.
var lfk1MA = Workload{FA: 2, FM: 3, Loads: 2, Stores: 1}

func TestWorkloadBounds(t *testing.T) {
	// LFK1 MA: t_f = max(2,3) = 3, t_m = 3, bound = 3 CPL = 0.6 CPF.
	if got := lfk1MA.TF(); got != 3 {
		t.Errorf("TF = %v, want 3", got)
	}
	if got := lfk1MA.TM(); got != 3 {
		t.Errorf("TM = %v, want 3", got)
	}
	if got := lfk1MA.Bound(); got != 3 {
		t.Errorf("MA bound = %v, want 3", got)
	}
	if got := CPF(lfk1MA.Bound(), lfk1MA); got != 0.6 {
		t.Errorf("MA CPF = %v, want 0.6", got)
	}
}

func TestWorkloadFromAssemblyLFK1(t *testing.T) {
	w := WorkloadFromAssembly(lfk1Body(t))
	want := Workload{FA: 2, FM: 3, Loads: 3, Stores: 1}
	if w != want {
		t.Fatalf("MAC workload = %+v, want %+v", w, want)
	}
	// t_MAC = max(3, 4) = 4 CPL = 0.8 CPF (paper §3.5).
	if got := w.Bound(); got != 4 {
		t.Errorf("MAC bound = %v, want 4", got)
	}
	if got := CPF(w.Bound(), lfk1MA); got != 0.8 {
		t.Errorf("MAC CPF = %v, want 0.8", got)
	}
}

func TestPartitionLFK1(t *testing.T) {
	chimes := Partition(lfk1Body(t), DefaultRules())
	if len(chimes) != 4 {
		t.Fatalf("LFK1 partitions into %d chimes, want 4", len(chimes))
	}
	wantSizes := []int{2, 3, 3, 1}
	for i, c := range chimes {
		if len(c.Members) != wantSizes[i] {
			t.Errorf("chime %d has %d members, want %d (%v)", i+1, len(c.Members), wantSizes[i], c.Members)
		}
		if !c.HasMem {
			t.Errorf("chime %d should contain a memory operation", i+1)
		}
	}
	// Paper §3.5 chime costs: 131, 132, 132, 132 cycles.
	wantCosts := []float64{131, 132, 132, 132}
	for i, c := range chimes {
		if got := c.Cost(128, DefaultRules()); got != wantCosts[i] {
			t.Errorf("chime %d cost = %v, want %v", i+1, got, wantCosts[i])
		}
	}
}

func TestMACSBoundLFK1(t *testing.T) {
	// Paper §3.5: sum of chimes 527; x1.02 refresh = 537.54 cycles;
	// t_MACS = 4.200 CPL = 0.840 CPF.
	res := MACSBound(lfk1Body(t), 128, DefaultRules())
	if math.Abs(res.Cycles-537.54) > 0.01 {
		t.Errorf("MACS cycles = %v, want 537.54", res.Cycles)
	}
	if math.Abs(res.CPL-4.200) > 0.001 {
		t.Errorf("MACS CPL = %v, want 4.200", res.CPL)
	}
	if got := CPF(res.CPL, lfk1MA); math.Abs(got-0.840) > 0.001 {
		t.Errorf("MACS CPF = %v, want 0.840", got)
	}
}

func TestMACSFBoundLFK1(t *testing.T) {
	// Execute-only bound: deleting the memory ops leaves mul / mul+add /
	// mul+add -> 3 chimes, (129+130+130)/128 = 3.04 CPL (paper Table 5).
	res := MACSBound(StripMemOps(lfk1Body(t)), 128, DefaultRules())
	if len(res.Chimes) != 3 {
		t.Fatalf("t_MACS^f chimes = %d, want 3", len(res.Chimes))
	}
	if math.Abs(res.CPL-3.04) > 0.01 {
		t.Errorf("t_MACS^f = %v CPL, want about 3.04", res.CPL)
	}
	if res.RefreshCycles != 0 {
		t.Errorf("execute-only bound charged refresh %v, want 0", res.RefreshCycles)
	}
}

func TestMACSMBoundLFK1(t *testing.T) {
	// Access-only bound: 4 memory chimes, (3*130+132)*1.02/128 = 4.16 CPL
	// (paper Table 5 reports 4.14).
	res := MACSBound(StripFPOps(lfk1Body(t)), 128, DefaultRules())
	if len(res.Chimes) != 4 {
		t.Fatalf("t_MACS^m chimes = %d, want 4", len(res.Chimes))
	}
	if res.CPL < 4.05 || res.CPL > 4.25 {
		t.Errorf("t_MACS^m = %v CPL, want about 4.16", res.CPL)
	}
}

func TestAnalyzeLFK1Hierarchy(t *testing.T) {
	a := Analyze(lfk1MA, lfk1Body(t), 128, DefaultRules())
	tma, tmac, tmacs := a.CPFs()
	if tma != 0.6 || tmac != 0.8 {
		t.Errorf("CPFs = %v, %v, want 0.6, 0.8", tma, tmac)
	}
	if math.Abs(tmacs-0.840) > 0.001 {
		t.Errorf("MACS CPF = %v, want 0.840", tmacs)
	}
	// Hierarchy: MA <= MAC <= MACS.
	if !(a.TMA <= a.TMAC && a.TMAC <= a.MACS.CPL) {
		t.Errorf("hierarchy violated: MA=%v MAC=%v MACS=%v", a.TMA, a.TMAC, a.MACS.CPL)
	}
}

func TestPairRuleSplitsChime(t *testing.T) {
	// Paper §3.3: add.d v2,v6,v6 ; mul.d v6,v1,v4 exceeds two reads of
	// pair {v2,v6} and must split into two chimes.
	p := asm.MustParse(`
	add.d v2,v6,v6
	mul.d v6,v1,v4
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 2 {
		t.Fatalf("pair read violation: %d chimes, want 2", len(chimes))
	}
	// Without the pair rule they would share a chime.
	rules := DefaultRules()
	rules.PairRule = false
	chimes = Partition(p.Instrs, rules)
	if len(chimes) != 1 {
		t.Fatalf("pair rule disabled: %d chimes, want 1", len(chimes))
	}
}

func TestPairWriteRuleSplitsChime(t *testing.T) {
	// Paper §3.3: add.d v1,v0,v2 ; mul.d v2,v1,v6 writes pair {v2,v6}
	// twice and must split.
	p := asm.MustParse(`
	add.d v1,v0,v2
	mul.d v2,v1,v6
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 2 {
		t.Fatalf("pair write violation: %d chimes, want 2", len(chimes))
	}
}

func TestPipeConflictSplitsChime(t *testing.T) {
	p := asm.MustParse(`
	add.d v0,v1,v2
	sub.d v3,v1,v5
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 2 {
		t.Fatalf("two add-pipe ops: %d chimes, want 2", len(chimes))
	}
}

func TestChainingRuleWithoutChaining(t *testing.T) {
	// ld feeding an add shares a chime with chaining, splits without.
	p := asm.MustParse(`
.data x 1024
	ld.l x(a1),v0
	add.d v0,v1,v2
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 1 {
		t.Fatalf("chained ld+add: %d chimes, want 1", len(chimes))
	}
	rules := DefaultRules()
	rules.Chaining = false
	chimes = Partition(p.Instrs, rules)
	if len(chimes) != 2 {
		t.Fatalf("no chaining: %d chimes, want 2", len(chimes))
	}
}

func TestScalarMemorySplitRule(t *testing.T) {
	// A scalar load between a vector load and a vector add: the chime has
	// a vector memory access, so it terminates at the scalar load.
	p := asm.MustParse(`
.data x 1024
	ld.l x(a1),v0
	ld.l x+8(a2),s3
	add.d v0,v1,v2
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 2 {
		t.Fatalf("split rule: %d chimes, want 2", len(chimes))
	}
	// Scalar load first, then vector FP, then vector load: the vector
	// memory reference is the later one, so the chime splits before it.
	q := asm.MustParse(`
.data x 1024
	ld.l x+8(a2),s3
	add.d v0,v1,v2
	ld.l x(a1),v4
`)
	chimes = Partition(q.Instrs, DefaultRules())
	if len(chimes) != 2 {
		t.Fatalf("split-before-later rule: %d chimes, want 2", len(chimes))
	}
	if chimes[0].HasMem {
		t.Error("first chime should be the FP-only chime")
	}
	// Without the rule, all three fit one chime.
	rules := DefaultRules()
	rules.SplitRule = false
	if got := Partition(q.Instrs, rules); len(got) != 1 {
		t.Fatalf("split rule disabled: %d chimes, want 1", len(got))
	}
}

// TestSplitClosesChimeAtOnce: a scalar memory access that closes a chime
// carrying vector memory traffic flushes it there, so a second scalar
// access before the next vector instruction marks the next chime's port,
// as the simulator and the MACS-D partition do. Streams here are
// conflict-free, so t_MACS and t_MACSD agree: 197 cycles over 3 chimes
// at VL 64 (Partition once left the closed chime pending and gave 133
// over 2).
func TestSplitClosesChimeAtOnce(t *testing.T) {
	p := asm.MustParse(`
.data d_X 1024
.data d_N 8
.data d_Y 1024
	ld.l d_X(a0),v0
	ld.l d_N,a1
	ld.l d_N,a2
	add.d v0,v0,v1
	ld.l d_Y(a0),v2
`)
	m := MACSBound(p.Instrs, 64, DefaultRules())
	d := MACSDBound(p.Instrs, 64, DefaultRules())
	if m.Cycles != 197 || len(m.Chimes) != 3 {
		t.Errorf("t_MACS = %v cycles over %d chimes, want 197 over 3", m.Cycles, len(m.Chimes))
	}
	if d.Cycles != m.Cycles || len(d.Chimes) != len(m.Chimes) {
		t.Errorf("t_MACSD = %v cycles over %d chimes, t_MACS %v over %d", d.Cycles, len(d.Chimes), m.Cycles, len(m.Chimes))
	}
}

func TestScalarMemoryBetweenFPChimesDoesNotSplit(t *testing.T) {
	// Paper §4.4 (LFK8): a scalar load splits a potential load-add-mul
	// chime but not an add-mul chime.
	p := asm.MustParse(`
.data x 1024
	add.d v0,v1,v2
	ld.l x+8(a2),s3
	mul.d v2,v3,v5
`)
	chimes := Partition(p.Instrs, DefaultRules())
	if len(chimes) != 1 {
		t.Fatalf("FP-only chime split by scalar load: %d chimes, want 1", len(chimes))
	}
}

func TestRefreshRuns(t *testing.T) {
	// Three memory chimes: no refresh factor (needs four).
	p := asm.MustParse(`
.data x 8192
	ld.l x(a1),v0
	ld.l x+8(a1),v1
	st.l v0,x+16(a1)
`)
	res := MACSBound(p.Instrs, 128, DefaultRules())
	if res.RefreshCycles != 0 {
		t.Errorf("3 memory chimes charged refresh %v, want 0", res.RefreshCycles)
	}
	// Four memory chimes: factor applies to all (cyclic repeat).
	q := asm.MustParse(`
.data x 8192
	ld.l x(a1),v0
	ld.l x+8(a1),v1
	ld.l x+24(a1),v2
	st.l v0,x+16(a1)
`)
	res = MACSBound(q.Instrs, 128, DefaultRules())
	want := 0.02 * (130 + 130 + 130 + 132)
	if math.Abs(res.RefreshCycles-want) > 1e-9 {
		t.Errorf("4 memory chimes refresh = %v, want %v", res.RefreshCycles, want)
	}
}

func TestRefreshRunBrokenByFPChime(t *testing.T) {
	// mem mem FP(mul-pipe chimes) mem mem, cyclically: the run wraps to
	// length 4 and the factor applies to the memory chimes only.
	p := asm.MustParse(`
.data x 8192
	ld.l x(a1),v0
	ld.l x+8(a1),v1
	mul.d v0,v1,v2
	mul.d v2,v1,v3
	ld.l x+24(a1),v4
	st.l v3,x+16(a1)
`)
	// Chimes: {ld,mul} {ld,mul} {ld} {st}: all have memory -> run of 4.
	res := MACSBound(p.Instrs, 128, DefaultRules())
	if res.RefreshCycles <= 0 {
		t.Errorf("cyclic run of 4 memory chimes should be charged, got %v", res.RefreshCycles)
	}
}

func TestDivideDominatesChimeCost(t *testing.T) {
	p := asm.MustParse("div.d v0,v1,v2")
	res := MACSBound(p.Instrs, 128, DefaultRules())
	want := 4.0*128 + 21
	if res.Cycles != want {
		t.Errorf("divide chime cycles = %v, want %v", res.Cycles, want)
	}
}

func TestReductionZ(t *testing.T) {
	p := asm.MustParse("sum.d v0,s1")
	res := MACSBound(p.Instrs, 128, DefaultRules())
	want := 1.35 * 128
	if res.Cycles != want {
		t.Errorf("reduction chime cycles = %v, want %v", res.Cycles, want)
	}
}

func TestMACSBoundEmptyAndZeroVL(t *testing.T) {
	if res := MACSBound(nil, 128, DefaultRules()); res.Cycles != 0 || res.CPL != 0 {
		t.Errorf("empty body bound = %+v, want zero", res)
	}
	body := lfk1Body(t)
	if res := MACSBound(body, 0, DefaultRules()); res.Cycles != 0 {
		t.Errorf("VL=0 bound = %+v, want zero", res)
	}
}

func TestBubblesDisabled(t *testing.T) {
	rules := DefaultRules()
	rules.Bubbles = false
	rules.Refresh = false
	res := MACSBound(lfk1Body(t), 128, rules)
	if res.Cycles != 4*128 {
		t.Errorf("no-bubble cycles = %v, want 512", res.Cycles)
	}
}

func TestHarmonicMeanMFLOPS(t *testing.T) {
	// Paper Table 4: average MA CPF 1.080 -> 23.15 MFLOPS.
	got := HarmonicMeanMFLOPS([]float64{1.080})
	if math.Abs(got-23.148) > 0.01 {
		t.Errorf("HMEAN = %v, want 23.15", got)
	}
	if HarmonicMeanMFLOPS(nil) != 0 {
		t.Error("HMEAN of empty set should be 0")
	}
}

func TestStripOpsPreserveScalars(t *testing.T) {
	body := lfk1Body(t)
	f := StripMemOps(body)
	m := StripFPOps(body)
	// 14 instructions: 5 scalar, 4 memory-vector, 5 fp-vector.
	if len(f) != 14-4 {
		t.Errorf("StripMemOps kept %d instrs, want 10", len(f))
	}
	if len(m) != 14-5 {
		t.Errorf("StripFPOps kept %d instrs, want 9", len(m))
	}
	for _, in := range f {
		if in.IsVector() && in.IsMemory() {
			t.Errorf("StripMemOps left %v", in)
		}
	}
	for _, in := range m {
		if in.IsVector() && (in.Class() == isa.ClassFPAdd || in.Class() == isa.ClassFPMul) {
			t.Errorf("StripFPOps left %v", in)
		}
	}
}

// Property: every vector instruction lands in exactly one chime, chimes
// preserve order, and each chime respects the pipe and pair limits.
func TestPartitionInvariants(t *testing.T) {
	bodies := [][]isa.Instr{
		lfk1Body(t),
		asm.MustParse(".data x 8192\n\tld.l x(a1),v0\n\tdiv.d v0,v1,v2\n\tsum.d v2,s1\n\tst.l v2,x+8(a1)").Instrs,
		asm.MustParse("add.d v0,v1,v2\n\tmul.d v2,v3,v5\n\tsub.d v5,v0,v6\n\tneg.d v6,v7").Instrs,
	}
	for bi, body := range bodies {
		chimes := Partition(body, DefaultRules())
		var nvec int
		for _, in := range body {
			if in.IsVector() {
				nvec++
			}
		}
		var got int
		for ci, c := range chimes {
			got += len(c.Members)
			pipes := map[isa.Pipe]bool{}
			var reads, writes [4]int
			for i := range c.Members {
				in := &c.Members[i]
				if pipes[in.Pipe()] {
					t.Errorf("body %d chime %d: duplicate pipe %v", bi, ci, in.Pipe())
				}
				pipes[in.Pipe()] = true
				r, err := isa.Decode(in)
				if err != nil {
					t.Fatalf("body %d chime %d: %v", bi, ci, err)
				}
				accumulatePairRefs(&r, &reads, &writes)
			}
			for p := 0; p < 4; p++ {
				if reads[p] > isa.PairMaxReads || writes[p] > isa.PairMaxWrites {
					t.Errorf("body %d chime %d: pair %d refs r=%d w=%d", bi, ci, p, reads[p], writes[p])
				}
			}
			if len(c.Members) > 3 {
				t.Errorf("body %d chime %d: %d members, max 3 (one per pipe)", bi, ci, len(c.Members))
			}
		}
		if got != nvec {
			t.Errorf("body %d: %d chime members, want %d vector instrs", bi, got, nvec)
		}
	}
}

// Property: the MACS bound is monotonic in the body — appending an
// instruction never lowers the bound.
func TestMACSMonotonicity(t *testing.T) {
	body := lfk1Body(t)
	prev := 0.0
	for i := 1; i <= len(body); i++ {
		res := MACSBound(body[:i], 128, DefaultRules())
		if res.Cycles+1e-9 < prev {
			t.Fatalf("bound decreased at prefix %d: %v < %v", i, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// Property: t_MACS >= max over component bounds cannot be asserted in
// general (the paper notes t_MACS is *not* simply max(t_MACS^f, t_MACS^m)),
// but t_MACS must be at least each of MA-, MAC-style pipe bounds.
func TestMACSAtLeastMAC(t *testing.T) {
	body := lfk1Body(t)
	a := Analyze(lfk1MA, body, 128, DefaultRules())
	if a.MACS.CPL < a.TMAC {
		t.Errorf("t_MACS (%v) < t_MAC (%v)", a.MACS.CPL, a.TMAC)
	}
	if a.TMAC < a.TMA {
		t.Errorf("t_MAC (%v) < t_MA (%v)", a.TMAC, a.TMA)
	}
}

func TestNoMemoryChainingRule(t *testing.T) {
	// ld feeding an add: one chime on the C-240, two on a Cray-1-like
	// machine where loads cannot chain into arithmetic.
	p := asm.MustParse(`
.data x 1024
	ld.l x(a1),v0
	add.d v0,v1,v2
`)
	rules := DefaultRules()
	if got := len(Partition(p.Instrs, rules)); got != 1 {
		t.Fatalf("C-240 chimes = %d, want 1", got)
	}
	rules.NoMemoryChaining = true
	if got := len(Partition(p.Instrs, rules)); got != 2 {
		t.Fatalf("Cray-1-like chimes = %d, want 2", got)
	}
	// Arithmetic-to-arithmetic chaining is unaffected.
	q := asm.MustParse("\tmul.d v0,v1,v2\n\tadd.d v2,v3,v5")
	if got := len(Partition(q.Instrs, rules)); got != 1 {
		t.Fatalf("mul->add chime under NoMemoryChaining = %d, want 1", got)
	}
}

func TestLFK1BoundAtVL64(t *testing.T) {
	// Bounds scale with the hardware vector length: bubbles amortize
	// over fewer elements at VL=64.
	body := lfk1Body(t)
	b128 := MACSBound(body, 128, DefaultRules())
	b64 := MACSBound(body, 64, DefaultRules())
	if b64.CPL <= b128.CPL {
		t.Errorf("VL=64 CPL %.3f should exceed VL=128 CPL %.3f", b64.CPL, b128.CPL)
	}
}
