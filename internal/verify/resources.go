package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
)

// resources forms the chimes of the inner vectorized loop (the code the
// MACS model bounds) with the same core.ChimeBuilder the simulator and
// the bound use, and warns where the single memory port or the
// register-pair limits force a chime split — legal programs that will
// run slower than their instruction mix suggests, the paper's LFK8
// signature. A split because a pipe is taken is ordinary chime
// formation, not a finding.
func resources(p *asm.Program) []Diagnostic {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return nil
	}
	var ds []Diagnostic
	warn := func(i int, msg string) {
		ds = append(ds, Diagnostic{SevWarning, loop.Start + i, msg})
	}
	b := core.NewChimeBuilder(core.DefaultRules())
	for i, in := range loop.Body {
		if !in.IsVector() {
			if in.IsMemory() && b.NoteScalarMem() {
				warn(i, "single memory port: scalar memory access splits a chime carrying vector memory traffic")
				b.Flush()
			}
			continue
		}
		if _, ok := isa.VectorTiming(in.Op); !ok {
			continue // structural pass reports the missing timing
		}
		if !b.Fits(in) {
			if b.PortSplit(in) {
				warn(i, "single memory port: vector memory access follows a scalar memory access and starts a new chime")
			}
			if pr, ok := b.PairSplit(in); ok {
				warn(i, fmt.Sprintf("register pair pressure on {v%d,v%d}: more than %d reads or %d write per chime forces a split",
					pr, pr+4, isa.PairMaxReads, isa.PairMaxWrites))
			}
			b.Flush()
		}
		b.Add(in)
	}
	return ds
}
