package vm

import (
	"encoding/json"
	"fmt"
	"testing"

	"macs/internal/asm"
	"macs/internal/isa"
)

// checkConserved asserts the attribution invariant: for every lane,
// issue cycles plus attributed stall cycles exactly equal total cycles.
func checkConserved(t *testing.T, st Stats) {
	t.Helper()
	if err := st.Attr.Conserved(st.Cycles); err != nil {
		t.Errorf("attribution not conserved: %v", err)
	}
}

func TestAttrConservationScalarOnly(t *testing.T) {
	src := `
	mov #10,s0
	mov #0,s1
L1:
	add.w s0,s1,s1
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	_, st := run(t, DefaultConfig(), src, nil)
	checkConserved(t, st)
	asu := st.Attr.Lanes[LaneASU]
	if asu.Issue == 0 {
		t.Error("scalar program should have ASU issue cycles")
	}
	// Idle pipes are all drain.
	for _, p := range []isa.Pipe{isa.PipeLoadStore, isa.PipeAdd, isa.PipeMul} {
		la := st.Attr.Lanes[p]
		if la.Issue != 0 {
			t.Errorf("%s pipe issued %d cycles in a scalar program", p, la.Issue)
		}
		if la.Stalls[StallDrain] != st.Cycles {
			t.Errorf("%s pipe drain = %d, want %d", p, la.Stalls[StallDrain], st.Cycles)
		}
	}
}

func TestAttrConservationVectorLoop(t *testing.T) {
	src := `
.data a 65536
.data b 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #20,s0
L1:
	ld.l a(a0),v2
	mul.d v2,v1,v0
	add.d v0,v3,v5
	st.l v5,b(a0)
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	for _, refresh := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.RefreshStalls = refresh
		_, st := run(t, cfg, src, nil)
		checkConserved(t, st)
		for _, p := range []isa.Pipe{isa.PipeLoadStore, isa.PipeAdd, isa.PipeMul} {
			if st.Attr.Lanes[p].Issue == 0 {
				t.Errorf("refresh=%v: %s pipe should have issue cycles", refresh, p)
			}
		}
		if st.Attr.Cause(StallStartup) == 0 {
			t.Errorf("refresh=%v: vector program should attribute startup cycles", refresh)
		}
		ref := st.Attr.Cause(StallRefresh)
		if refresh && ref == 0 {
			t.Error("refresh enabled: expected attributed refresh cycles")
		}
		if !refresh && ref != 0 {
			t.Errorf("refresh disabled: attributed %d refresh cycles", ref)
		}
	}
}

func TestAttrBankConflicts(t *testing.T) {
	// Stride 32 words hits the same bank every access.
	src := `
.data a 1048576
	mov #256,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	checkConserved(t, st)
	if st.Attr.Cause(StallBankConflict) == 0 {
		t.Error("same-bank stride should attribute bank-conflict cycles")
	}
	if got := st.Attr.Cause(StallBankConflict) + st.Attr.Cause(StallRefresh); got != st.MemStalls {
		t.Errorf("bank+refresh attribution = %d, want MemStalls %d", got, st.MemStalls)
	}
}

func TestAttrChainWaitAndBubble(t *testing.T) {
	// Three dependent vector ops in one chime chain; startup gaps between
	// chained starts appear as chain-wait on the consumer pipes.
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
	mul.d v0,v1,v2
	add.d v2,v3,v4
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	checkConserved(t, st)
	if st.Attr.Cause(StallChain) == 0 {
		t.Error("chained chime should attribute chain-wait cycles")
	}
}

func TestAttrChimeSplitOnScalarMemory(t *testing.T) {
	// A scalar load between vector instructions forces a chime split
	// (issue rule 4): the next chime's gate is attributed as chime-split.
	src := `
.data a 65536
.data q 8 2.0
	mov #8,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
	add.d v0,v1,v2
	ld.l q,s2
	mul.d v2,s2,v3
	add.d v3,v1,v4
`
	cfg := DefaultConfig()
	cfg.RefreshStalls = false
	_, st := run(t, cfg, src, nil)
	checkConserved(t, st)
	if st.Attr.Cause(StallChimeSplit) == 0 {
		t.Error("scalar-memory chime split should attribute chime-split cycles")
	}
}

func TestAttrTotalsAndShare(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
	add.d v0,v1,v2
`
	_, st := run(t, DefaultConfig(), src, nil)
	tot := st.Attr.Totals()
	if tot["issue"] == 0 {
		t.Error("Totals missing issue bucket")
	}
	var sum int64
	for _, v := range tot {
		sum += v
	}
	if want := int64(NumLanes) * st.Cycles; sum != want {
		t.Errorf("Totals sum = %d, want NumLanes*Cycles = %d", sum, want)
	}
	if s := st.Attr.Share(StallStartup); s < 0 || s > 1 {
		t.Errorf("Share out of range: %v", s)
	}
	if st.Attr.Empty() {
		t.Error("attribution should not be empty after a run")
	}
	var zero Attribution
	if !zero.Empty() {
		t.Error("zero attribution should be empty")
	}
}

func TestAttrJSONRoundTrip(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
	mul.d v0,v1,v2
`
	_, st := run(t, DefaultConfig(), src, nil)
	b, err := json.Marshal(st.Attr)
	if err != nil {
		t.Fatal(err)
	}
	var got Attribution
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != st.Attr {
		t.Errorf("JSON round trip mismatch:\n got %+v\nwant %+v", got, st.Attr)
	}
	// Keys are stable cause names, not array indices.
	var doc map[string]struct {
		Issue  int64            `json:"issue"`
		Stalls map[string]int64 `json:"stalls"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["asu"]; !ok {
		t.Errorf("marshaled attribution missing asu lane: %s", b)
	}
}

func TestStallCauseNames(t *testing.T) {
	seen := map[string]bool{}
	for c := StallCause(0); c < NumStallCauses; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Errorf("cause %d has empty or duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if LaneName(LaneASU) != "asu" {
		t.Errorf("LaneName(ASU) = %q", LaneName(LaneASU))
	}
	if LaneName(int(isa.PipeAdd)) == "" {
		t.Error("LaneName(PipeAdd) empty")
	}
}

func TestTraceRingBounded(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #30,s0
L1:
	ld.l a(a0),v2
	add.d v2,v1,v0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	cfg := DefaultConfig()
	cfg.TraceRing = 8
	cpu, st := run(t, cfg, src, nil)
	checkConserved(t, st)
	ev := cpu.TraceEvents()
	if len(ev) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(ev))
	}
	// 60 vector instructions issued; ring dropped the rest.
	if cpu.TraceDropped() != st.VectorInstrs-8 {
		t.Errorf("dropped = %d, want %d", cpu.TraceDropped(), st.VectorInstrs-8)
	}
	// Oldest-first and the newest events are the last chimes.
	for i := 1; i < len(ev); i++ {
		if ev[i].Chime < ev[i-1].Chime {
			t.Errorf("ring events out of order: chime %d before %d", ev[i-1].Chime, ev[i].Chime)
		}
	}
	// Full trace takes precedence when enabled.
	cfg.Trace = true
	cpu2, _ := run(t, cfg, src, nil)
	if got := len(cpu2.TraceEvents()); int64(got) != st.VectorInstrs {
		t.Errorf("full trace kept %d events, want %d", got, st.VectorInstrs)
	}
	if cpu2.TraceDropped() != 0 {
		t.Errorf("full trace dropped %d", cpu2.TraceDropped())
	}
}

// TestAttrConservationProperty sweeps VL, stride, refresh and slowdown to
// stress the invariant across timing paths.
func TestAttrConservationProperty(t *testing.T) {
	for _, vl := range []int{1, 7, 64, 128} {
		for _, vs := range []int{8, 64, 256} {
			for _, slow := range []float64{1.0, 1.4} {
				src := fmt.Sprintf(`
.data a 1048576
.data b 1048576
.data q 8 2.0
	mov #%d,vs
	mov #%d,s1
	mov s1,vl
	mov #5,s0
L1:
	ld.l a(a0),v2
	mul.d v2,v1,v0
	ld.l q,s3
	add.d v0,s3,v5
	st.l v5,b(a0)
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`, vs, vl)
				cfg := DefaultConfig()
				cfg.MemSlowdown = slow
				_, st := run(t, cfg, src, nil)
				checkConserved(t, st)
			}
		}
	}
}

// TestTraceRingHandsOverAfterRun: once a run has finished, a ring that
// never wrapped hands its buffer over without a copy; a call mid-run
// copies, so later pushes cannot change what it returned. Events point
// at the loaded program's instructions.
func TestTraceRingHandsOverAfterRun(t *testing.T) {
	src := `
.data a 65536
	mov #8,vs
	mov #16,vl
	mov #3,s0
L1:
	ld.l a(a0),v2
	add.d v2,v1,v0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TraceRing = 64
	cpu := New(cfg)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	var mid []TraceEvent
	for {
		done, err := cpu.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if mid == nil && len(cpu.TraceEvents()) == 2 {
			mid = cpu.TraceEvents()
		}
	}
	ev := cpu.TraceEvents()
	if len(ev) != 6 || len(mid) != 2 {
		t.Fatalf("ring kept %d events (%d mid-run), want 6 and 2", len(ev), len(mid))
	}
	if again := cpu.TraceEvents(); &again[0] != &ev[0] {
		t.Error("a finished run's unwrapped ring was copied")
	}
	if &mid[0] == &ev[0] {
		t.Error("a mid-run call shares the ring's buffer")
	}
	if ev[0].Instr != &p.Instrs[3] || ev[1].Instr != &p.Instrs[4] {
		t.Errorf("events point at %p, %p; want the program's instructions 3 and 4", ev[0].Instr, ev[1].Instr)
	}
}

// TestLoadRejectsUndecodableInstruction: an instruction reading more
// registers than a decoded row holds is refused before the run starts.
func TestLoadRejectsUndecodableInstruction(t *testing.T) {
	p, err := asm.Parse("mov #8,vs\nmov #4,vl\nld.d d_X(a0),a1,a2,a3,a4,a5,v0\nhalt\n.data d_X 1024\n")
	if err != nil {
		t.Fatal(err)
	}
	err = New(DefaultConfig()).Load(p)
	want := "vm: instr 2 (ld.d d_X(a0),a1,a2,a3,a4,a5,v0): reads 8 registers, more than the 6 an instruction may read"
	if err == nil || err.Error() != want {
		t.Errorf("Load error = %v, want %q", err, want)
	}
}
