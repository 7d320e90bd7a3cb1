package depgraph_test

import (
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/depgraph"
	"macs/internal/isa"
	"macs/internal/lfk"
	"macs/internal/mem"
	"macs/internal/verify"
	"macs/internal/vm"
)

// FuzzDepGraph feeds arbitrary kernel sources through compile -> verify
// -> dependence analysis -> simulation and asserts the analyzer's two
// core invariants on every verify-clean program: the intra-iteration
// dependence graph is a DAG, and the critical-path figures never exceed
// what the simulator actually measures. Seeds are the ten LFKs.
func FuzzDepGraph(f *testing.F) {
	for _, k := range lfk.All() {
		f.Add(k.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := compiler.Compile(src, compiler.DefaultOptions())
		if err != nil {
			return
		}
		if verify.HasErrors(verify.Check(p)) {
			return
		}
		// The interval analysis must terminate and not panic on any
		// compilable program.
		iv := depgraph.Intervals(p, depgraph.Rows(p))
		_ = depgraph.StreamFacts(p, iv, mem.DefaultConfig())

		cp, g, ok := depgraph.Analyze(p, isa.VLMax, depgraph.DefaultParams())
		if !ok {
			return
		}
		if !g.Acyclic() {
			t.Fatalf("dependence graph has an intra-iteration cycle:\n%s", p.String())
		}
		loop, _ := asm.InnerVectorLoop(p)

		cfg := vm.DefaultConfig()
		cfg.Trace = true
		cfg.MaxCycles = 2_000_000
		cfg.MaxInstrs = 2_000_000
		cpu := vm.New(cfg)
		if err := cpu.Load(p); err != nil {
			return
		}
		st, err := cpu.Run()
		if err != nil {
			return // runaway or runtime fault: no timing claim to check
		}

		passes := bodyPasses(cpu.Trace(), p, loop)
		if passes < 1 {
			return // the analyzed loop never executed
		}
		if b := cp.TotalBound(1); b > st.Cycles {
			t.Fatalf("one-pass t_CP %d exceeds simulated %d cycles:\n%s", b, st.Cycles, p.String())
		}
		if cp.StraightLine && singleEntry(p, loop) {
			if b := cp.TotalBound(passes); b > st.Cycles {
				t.Fatalf("t_CP TotalBound(%d) = %d exceeds simulated %d cycles:\n%s",
					passes, b, st.Cycles, p.String())
			}
		}
	})
}

// bodyPasses counts how many times the loop body executed, by counting
// trace events of a body vector instruction whose printed form is unique
// in the whole program (0 when no such witness exists).
func bodyPasses(trace []vm.TraceEvent, p *asm.Program, loop asm.Loop) int64 {
	witness := ""
	for i := loop.Start; i < loop.End; i++ {
		if !p.Instrs[i].IsVector() {
			continue
		}
		s := p.Instrs[i].String()
		unique := true
		for j, other := range p.Instrs {
			if j != i && other.String() == s {
				unique = false
				break
			}
		}
		if unique {
			witness = s
			break
		}
	}
	if witness == "" {
		return 0
	}
	var n int64
	for _, ev := range trace {
		if ev.Instr.String() == witness {
			n++
		}
	}
	return n
}

// singleEntry reports whether the loop region can only be entered once:
// the loop's own back edge is the program's sole backward branch, so no
// outer loop can re-enter it (which would break the carried-recurrence
// scaling between non-consecutive iterations).
func singleEntry(p *asm.Program, loop asm.Loop) bool {
	for i, in := range p.Instrs {
		if !in.IsBranch() || i == loop.End-1 {
			continue
		}
		for _, o := range in.Ops {
			if o.Kind != isa.KindLabel {
				continue
			}
			if t, ok := p.Labels[o.Label]; ok && t <= i {
				return false
			}
		}
	}
	return true
}
