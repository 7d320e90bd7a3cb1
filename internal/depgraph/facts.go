package depgraph

import (
	"macs/internal/asm"
	"macs/internal/isa"
	"macs/internal/mem"
)

// StreamFact is what the interval analysis can prove about one vector
// memory instruction's bank behavior, from its statically inferred
// stride range alone.
type StreamFact struct {
	// Idx is the instruction index in the program.
	Idx   int
	Instr isa.Instr
	// Stride is the inferred VS range in bytes at the instruction.
	Stride Interval
	// VL is the inferred vector length range at the instruction.
	VL Interval
	// ConflictFree is true when every stride the range admits is
	// provably conflict-free against the bank layout (the bank model's
	// closed form prices it with zero bank stalls).
	ConflictFree bool
	// Conflicting is true when every admitted stride provably revisits a
	// bank within its cycle time (stride ≡ 0 mod banks·word guarantees
	// the worst case).
	Conflicting bool
}

// Proven reports whether the analysis decided the stream either way.
func (f StreamFact) Proven() bool { return f.ConflictFree || f.Conflicting }

// strideProbeCap bounds how many distinct stride values a bounded range
// may admit and still be proven element by element.
const strideProbeCap = 1024

// StreamFacts classifies every vector memory stream of a program against
// the bank layout using the converged interval states. Streams whose
// stride range is unbounded (or too wide to probe) yield an unproven
// fact.
func StreamFacts(p *asm.Program, iv *IntervalResult, cfg mem.Config) []StreamFact {
	var out []StreamFact
	for i, in := range p.Instrs {
		if !in.IsVector() || !in.IsMemory() {
			continue
		}
		f := StreamFact{
			Idx:    i,
			Instr:  in,
			Stride: iv.Reg(i, isa.VS()),
			VL:     iv.Reg(i, isa.VL()),
		}
		if f.Stride.Bounded() && !f.Stride.Empty() && f.Stride.Hi-f.Stride.Lo < strideProbeCap {
			free, conflict := true, true
			for s := f.Stride.Lo; s <= f.Stride.Hi; s++ {
				if cfg.UnitStrideConflictFree(s) {
					conflict = false
				} else {
					free = false
				}
				if s != 0 && s%(int64(cfg.Banks)*isa.WordBytes) != 0 {
					conflict = false
				}
			}
			f.ConflictFree, f.Conflicting = free, conflict
		}
		out = append(out, f)
	}
	return out
}
