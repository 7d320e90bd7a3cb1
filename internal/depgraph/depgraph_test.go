package depgraph_test

import (
	"math"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/depgraph"
	"macs/internal/isa"
	"macs/internal/lfk"
	"macs/internal/mem"
	"macs/internal/vm"
)

func mustParse(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

const loopSrc = `mov #128,s0
L:
mov #64,vl
mov #8,vs
ld.d d_X,v0
add.d v0,v1,v2
st.d v2,d_Y
sub.w #64,s0
lt.w #0,s0
jbrs.t L
halt
.data d_X 1024
.data d_Y 1024
`

// hasEdge reports whether the graph contains an edge with the given
// shape, matching on resource name.
func hasEdge(g *depgraph.Graph, from, to int, kind depgraph.EdgeKind, res string, carried bool) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind && e.Res == res && e.Carried == carried {
			return true
		}
	}
	return false
}

func TestBuildEdges(t *testing.T) {
	p := mustParse(t, loopSrc)
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		t.Fatal("no inner vector loop found")
	}
	g, err := depgraph.Build(loop.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Acyclic() {
		t.Fatal("graph not acyclic")
	}
	// Body indices: 0 mov vl, 1 mov vs, 2 ld, 3 add, 4 st, 5 sub, 6 lt, 7 jbrs.
	cases := []struct {
		from, to int
		kind     depgraph.EdgeKind
		res      string
		carried  bool
	}{
		{2, 3, depgraph.EdgeTrue, "v0", false}, // load feeds add
		{3, 4, depgraph.EdgeTrue, "v2", false}, // add feeds store
		{0, 2, depgraph.EdgeTrue, "vl", false}, // vl feeds vector ops
		{1, 2, depgraph.EdgeTrue, "vs", false}, // vs feeds memory stream
		{5, 6, depgraph.EdgeTrue, "s0", false}, // decrement feeds compare
		{6, 7, depgraph.EdgeTrue, "T", false},  // compare feeds branch
		{5, 5, depgraph.EdgeTrue, "s0", true},  // carried recurrence on s0
		{6, 5, depgraph.EdgeAnti, "s0", false}, // compare read before redefine? no: sub defines first
		{2, 3, depgraph.EdgeTrue, "v0", false},
	}
	for _, c := range cases[:7] {
		if !hasEdge(g, c.from, c.to, c.kind, c.res, c.carried) {
			t.Errorf("missing edge %d -%v(%s)-> %d carried=%v", c.from, c.kind, c.res, c.to, c.carried)
		}
	}
	if g.KindCount(depgraph.EdgeTrue) == 0 || g.Carried() == 0 {
		t.Fatalf("edge census: true=%d carried=%d", g.KindCount(depgraph.EdgeTrue), g.Carried())
	}
}

func TestCriticalPathLoop(t *testing.T) {
	p := mustParse(t, loopSrc)
	cp, g, ok := depgraph.Analyze(p, 64, depgraph.DefaultParams())
	if !ok {
		t.Fatal("Analyze found no vector loop")
	}
	if !g.Acyclic() {
		t.Fatal("graph not acyclic")
	}
	if !cp.StraightLine {
		t.Fatal("loop body should be straight-line")
	}
	if cp.Len <= 0 || cp.IISerial <= 0 || cp.II <= 0 || cp.CPL <= 0 {
		t.Fatalf("degenerate CP: %+v", cp)
	}
	// The chain ld -> add -> st must be at least the chained startups.
	if cp.Len < 3*10 {
		t.Errorf("Len = %d, want >= 30 (three chained Y=10 startups)", cp.Len)
	}
	if len(cp.Crit) < 2 {
		t.Errorf("critical chain too short: %v", cp.Crit)
	}
	// Carried s0 recurrence is scalar: one op latency per iteration.
	if cp.IICarried < 1 {
		t.Errorf("IICarried = %d, want >= 1", cp.IICarried)
	}
	if b := cp.TotalBound(2); b < cp.II {
		t.Errorf("TotalBound(2) = %d, want >= II = %d", b, cp.II)
	}
}

func TestIntervalArith(t *testing.T) {
	if got := depgraph.Point(3).Add(depgraph.Range(1, 2)); got != depgraph.Range(4, 5) {
		t.Errorf("3 + [1,2] = %v", got)
	}
	if got := depgraph.Range(1, 2).Sub(depgraph.Point(1)); got != depgraph.Range(0, 1) {
		t.Errorf("[1,2] - 1 = %v", got)
	}
	if got := depgraph.Range(-2, 3).Mul(depgraph.Point(-4)); got != depgraph.Range(-12, 8) {
		t.Errorf("[-2,3] * -4 = %v", got)
	}
	if got := depgraph.Range(1, 2).Join(depgraph.Range(5, 9)); got != depgraph.Range(1, 9) {
		t.Errorf("join = %v", got)
	}
	if got := depgraph.AtLeast(3).Meet(depgraph.AtMost(7)); got != depgraph.Range(3, 7) {
		t.Errorf("meet = %v", got)
	}
	top := depgraph.Top()
	if got := top.Add(depgraph.Point(1)); got != top {
		t.Errorf("top + 1 = %v", got)
	}
	// Saturation: near-overflow sums drop the moving bound.
	big := depgraph.Point(math.MaxInt64 - 1)
	if got := big.Add(depgraph.Point(10)); got.Bounded() {
		t.Errorf("overflowing add stayed bounded: %v", got)
	}
	w := depgraph.Range(0, 10).Widen(depgraph.Range(0, 5))
	if w.HiBnd || !w.LoBnd || w.Lo != 0 {
		t.Errorf("widen = %v, want [0,+inf]", w)
	}
}

func TestIntervalsRefinement(t *testing.T) {
	src := `mov #0,a0
L:
add.w #1,a0
lt.w a0,#10
jbrs.t L
st.l a0,d_out
halt
.data d_out 8
`
	p := mustParse(t, src)
	iv := depgraph.Intervals(p, depgraph.Rows(p))
	// Instruction indices: 0 mov, 1 add, 2 lt, 3 jbrs, 4 st, 5 halt.
	a0 := isa.Reg{Class: isa.ClassA, N: 0}
	if got := iv.Reg(1, a0); got != depgraph.Range(0, 9) {
		t.Errorf("a0 before add = %v, want [0,9]", got)
	}
	if got := iv.Reg(4, a0); got != depgraph.Point(10) {
		t.Errorf("a0 at store = %v, want 10", got)
	}
}

func TestIntervalsVLClamp(t *testing.T) {
	src := `mov #4096,s0
mov s0,vl
halt
`
	p := mustParse(t, src)
	iv := depgraph.Intervals(p, depgraph.Rows(p))
	got := iv.Reg(2, isa.VL())
	if got != depgraph.Range(0, int64(isa.VLMax)) && got != depgraph.Point(int64(isa.VLMax)) {
		t.Errorf("vl after clamped write = %v", got)
	}
	if !got.Bounded() || got.Hi > int64(isa.VLMax) {
		t.Errorf("vl not clamped: %v", got)
	}
}

func TestIntervalsWideningTerminates(t *testing.T) {
	// Unbounded count-up loop: the analysis must converge (widening) and
	// leave the counter unbounded above.
	src := `mov #0,a0
L:
add.w #3,a0
ld.l d_c,a1
eq.w #0,a1
jbrs.f L
st.l a0,d_c
halt
.data d_c 8
`
	p := mustParse(t, src)
	iv := depgraph.Intervals(p, depgraph.Rows(p))
	a0 := isa.Reg{Class: isa.ClassA, N: 0}
	got := iv.Reg(1, a0)
	if !got.LoBnd || got.Lo != 0 {
		t.Errorf("a0 lower bound lost: %v", got)
	}
	if got.HiBnd {
		t.Errorf("a0 upper bound should have widened away: %v", got)
	}
}

func TestStreamFacts(t *testing.T) {
	src := `mov #64,vl
mov #8,vs
ld.d d_X,v0
mov #256,vs
ld.d d_X,v1
ld.l d_s,a0
mov a0,vs
ld.d d_X,v2
halt
.data d_X 32768
.data d_s 8
`
	p := mustParse(t, src)
	iv := depgraph.Intervals(p, depgraph.Rows(p))
	facts := depgraph.StreamFacts(p, iv, mem.DefaultConfig())
	if len(facts) != 3 {
		t.Fatalf("got %d stream facts, want 3", len(facts))
	}
	if !facts[0].ConflictFree || facts[0].Conflicting {
		t.Errorf("unit stride: %+v", facts[0])
	}
	if sv, ok := facts[0].Stride.IsPoint(); !ok || sv != 8 {
		t.Errorf("unit stride interval = %v", facts[0].Stride)
	}
	if !facts[1].Conflicting || facts[1].ConflictFree {
		t.Errorf("bank-aligned stride: %+v", facts[1])
	}
	if facts[2].Proven() {
		t.Errorf("data-dependent stride should be unproven: %+v", facts[2])
	}
}

// TestLFKCriticalPath is the golden gate required by the issue: for all
// ten LFKs the critical-path bound must exist and never exceed the
// simulator's measured cycles, at the per-element level (t_CP <= measured
// CPL) and at the whole-run level (TotalBound <= cycles).
func TestLFKCriticalPath(t *testing.T) {
	cfg := vm.DefaultConfig()
	for _, k := range lfk.All() {
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		st, _, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("lfk%d sim: %v", k.ID, err)
		}
		cp, g, ok := depgraph.Analyze(c.Program, isa.VLMax, depgraph.DefaultParams())
		if !ok {
			t.Fatalf("lfk%d: no vector loop found", k.ID)
		}
		if !g.Acyclic() {
			t.Fatalf("lfk%d: dependence graph not acyclic", k.ID)
		}
		if cp.Len <= 0 {
			t.Errorf("lfk%d: no critical path", k.ID)
		}
		measuredCPL := float64(st.Cycles) / float64(k.Elements)
		if cp.StraightLine && cp.CPL > measuredCPL {
			t.Errorf("lfk%d: t_CP = %.3f exceeds measured CPL %.3f", k.ID, cp.CPL, measuredCPL)
		}
		strips := (int64(k.Elements) + int64(isa.VLMax) - 1) / int64(isa.VLMax)
		if b := cp.TotalBound(strips); b > st.Cycles {
			t.Errorf("lfk%d: TotalBound(%d) = %d exceeds simulated %d cycles",
				k.ID, strips, b, st.Cycles)
		}
	}
}
