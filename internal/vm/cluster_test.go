package vm

import (
	"fmt"
	"testing"

	"macs/internal/asm"
)

// memLoop is a memory-hungry loop: iters iterations of four unit-stride
// streams (the worst case for shared banks).
func memLoop(iters int) string {
	return fmt.Sprintf(`
.data a 262144
	mov #8,vs
	mov #128,s1
	mov s1,vl
	mov #%d,s0
L1:
	ld.l a(a0),v0
	ld.l a+2048(a0),v1
	ld.l a+4096(a0),v2
	st.l v0,a+8192(a0)
	add.w #1024,a0
	sub.w #128,s0
	lt.w #0,s0
	jbrs.t L1
`, iters)
}

func soloCycles(t *testing.T, src string) int64 {
	t.Helper()
	p := asm.MustParse(src)
	cpu := New(DefaultConfig())
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	st, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st.Cycles
}

func clusterCycles(t *testing.T, srcs []string) []Stats {
	t.Helper()
	cfgs := make([]Config, len(srcs))
	for i := range cfgs {
		cfgs[i] = DefaultConfig()
	}
	cl := NewCluster(cfgs)
	for i, src := range srcs {
		if err := cl.CPU(i).Load(asm.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestClusterSingleCPUNearSolo(t *testing.T) {
	src := memLoop(40)
	solo := soloCycles(t, src)
	stats := clusterCycles(t, []string{src})
	ratio := float64(stats[0].Cycles) / float64(solo)
	// The shared model accumulates bank state across streams where the
	// per-stream probe does not; allow a small difference only.
	if ratio < 0.95 || ratio > 1.15 {
		t.Errorf("1-CPU cluster %d cycles vs solo %d (ratio %.2f)", stats[0].Cycles, solo, ratio)
	}
}

func TestClusterContentionDegradesThroughput(t *testing.T) {
	src := memLoop(40)
	solo := soloCycles(t, src)
	stats := clusterCycles(t, []string{src, src, src, src})
	var worst float64
	for i, st := range stats {
		ratio := float64(st.Cycles) / float64(solo)
		if ratio < 0.98 {
			t.Errorf("cpu %d faster under contention: ratio %.2f", i, ratio)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	if worst < 1.02 {
		t.Errorf("no contention effect at 4 CPUs: worst ratio %.3f", worst)
	}
	// Paper §4.2: same-executable lockstep costs 5-10%, different
	// programs up to ~60%; co-simulated identical programs should land
	// in between, never beyond ~2x.
	if worst > 2.0 {
		t.Errorf("contention ratio %.2f implausibly high", worst)
	}
	t.Logf("4-CPU identical-program degradation: %.1f%%", 100*(worst-1))
}

func TestClusterMixedPrograms(t *testing.T) {
	// A memory-bound and a compute-bound program share the banks: the
	// compute-bound one barely degrades.
	memSrc := memLoop(40)
	fpSrc := `
	mov #128,s1
	mov s1,vl
	mov #40,s0
L1:
	mul.d v0,v1,v2
	add.d v2,v3,v4
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`
	soloFP := soloCycles(t, fpSrc)
	stats := clusterCycles(t, []string{memSrc, fpSrc, memSrc, fpSrc})
	for _, i := range []int{1, 3} {
		ratio := float64(stats[i].Cycles) / float64(soloFP)
		if ratio > 1.05 {
			t.Errorf("compute-bound cpu %d degraded %.2fx by memory traffic it never issues", i, ratio)
		}
	}
}

func TestClusterFunctionalIsolation(t *testing.T) {
	// Each CPU computes on its own memory: results are identical to solo
	// runs even under contention.
	src := `
.data a 4096
.data out 4096
	mov #8,vs
	mov #64,s1
	mov s1,vl
	ld.l a(a0),v0
	add.d v0,v0,v1
	st.l v1,out(a0)
`
	cl := NewCluster([]Config{DefaultConfig(), DefaultConfig()})
	for i := 0; i < 2; i++ {
		if err := cl.CPU(i).Load(asm.MustParse(src)); err != nil {
			t.Fatal(err)
		}
		m := cl.CPU(i).Memory()
		base, _ := m.SymbolAddr("a")
		for k := 0; k < 64; k++ {
			m.WriteF64(base+int64(k*8), float64(k+i*1000))
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := cl.CPU(i).Memory()
		out, _ := m.SymbolAddr("out")
		for k := 0; k < 64; k++ {
			want := 2 * float64(k+i*1000)
			got, _ := m.ReadF64(out + int64(k*8))
			if got != want {
				t.Fatalf("cpu %d out[%d] = %v, want %v", i, k, got, want)
			}
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewCluster(nil).Run(); err == nil {
		t.Error("empty cluster should error")
	}
	cl := NewCluster([]Config{DefaultConfig()})
	if _, err := cl.Run(); err == nil {
		t.Error("cluster with no loaded programs should error")
	}
}

func TestClusterStaggeredCompletion(t *testing.T) {
	// Different lengths: the long program keeps running after the short
	// one retires, and both finish.
	stats := clusterCycles(t, []string{memLoop(5), memLoop(50)})
	if stats[1].Cycles <= stats[0].Cycles {
		t.Errorf("long program (%d) should outlast short (%d)", stats[1].Cycles, stats[0].Cycles)
	}
}

// TestClusterUsesMachineBanks checks that the shared banks take the
// machine's geometry: a stride-2-word load pair conflicts on 8 banks
// (each bank revisited every 4 cycles, under its 8-cycle busy time) but
// not on 32, in a cluster as on a solo CPU.
func TestClusterUsesMachineBanks(t *testing.T) {
	src := `
.data a 4096
	mov #16,vs
	mov #128,s1
	mov s1,vl
	ld.l a(a0),v0
	ld.l a+8(a0),v1
`
	stalls := func(banks int) int64 {
		cfg := DefaultConfig()
		cfg.Banks = banks
		cl := NewCluster([]Config{cfg})
		if err := cl.CPU(0).Load(asm.MustParse(src)); err != nil {
			t.Fatal(err)
		}
		stats, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats[0].MemStalls
	}
	if s8, s32 := stalls(8), stalls(32); s8 <= s32 {
		t.Errorf("cluster memory stalls: %d on 8 banks, %d on 32; want more on 8", s8, s32)
	}
}
