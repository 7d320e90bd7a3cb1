package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/isa"
)

// structural checks every instruction's shape against the execution
// contract of the simulator and the bounds model: operand counts and
// classes per opcode, register numbers in range, branch targets resolved,
// and vector forms that have no Table 1 timing (and so can be neither
// bounded nor simulated).
func structural(p *asm.Program) []Diagnostic {
	var ds []Diagnostic
	errf := func(i int, format string, args ...any) {
		ds = append(ds, Diagnostic{SevError, i, fmt.Sprintf(format, args...)})
	}
	for name, idx := range p.Labels {
		if idx < 0 || idx > len(p.Instrs) {
			ds = append(ds, Diagnostic{SevError, -1,
				fmt.Sprintf("label %q index %d outside the program", name, idx)})
		}
	}
	for i, in := range p.Instrs {
		for _, o := range in.Ops {
			switch o.Kind {
			case isa.KindReg:
				if err := isa.CheckReg(o.Reg); err != nil {
					errf(i, "%v", err)
				}
			case isa.KindMem:
				if o.Base.Class != isa.ClassA && o.Base.Class != isa.ClassNone {
					errf(i, "memory base %s is not an a-register", o.Base)
				} else if o.Base.Class == isa.ClassA {
					if err := isa.CheckReg(o.Base); err != nil {
						errf(i, "%v", err)
					}
				}
				if o.Sym != "" {
					if _, ok := p.FindData(o.Sym); !ok {
						errf(i, "undefined data symbol %q", o.Sym)
					}
				}
			case isa.KindLabel:
				if _, ok := p.Labels[o.Label]; !ok {
					errf(i, "branch to undefined label %q", o.Label)
				}
			}
		}
		if in.IsVector() {
			checkVectorShape(in, i, errf)
		} else {
			checkScalarShape(in, i, errf)
		}
	}
	return ds
}

// checkScalarShape mirrors vm.execScalar's operand requirements.
func checkScalarShape(in isa.Instr, i int, errf func(int, string, ...any)) {
	switch in.Op {
	case isa.OpNop, isa.OpHalt:
	case isa.OpMov:
		if len(in.Ops) != 2 {
			errf(i, "mov needs 2 operands, has %d", len(in.Ops))
		} else if in.Ops[1].Kind != isa.KindReg {
			errf(i, "mov destination must be a register")
		}
	case isa.OpLd:
		if len(in.Ops) != 2 {
			errf(i, "scalar load needs 2 operands, has %d", len(in.Ops))
			return
		}
		if in.Ops[0].Kind != isa.KindMem {
			errf(i, "scalar load source must be a memory operand")
		}
		if d := in.Ops[1]; d.Kind != isa.KindReg ||
			(d.Reg.Class != isa.ClassA && d.Reg.Class != isa.ClassS) {
			errf(i, "scalar load destination must be an a- or s-register")
		}
	case isa.OpSt:
		if len(in.Ops) != 2 {
			errf(i, "scalar store needs 2 operands, has %d", len(in.Ops))
			return
		}
		if s := in.Ops[0]; s.Kind != isa.KindReg ||
			(s.Reg.Class != isa.ClassA && s.Reg.Class != isa.ClassS) {
			errf(i, "scalar store source must be an a- or s-register")
		}
		if in.Ops[1].Kind != isa.KindMem {
			errf(i, "scalar store destination must be a memory operand")
		}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		if len(in.Ops) != 2 && len(in.Ops) != 3 {
			errf(i, "%s needs 2 or 3 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[len(in.Ops)-1]; d.Kind != isa.KindReg {
			errf(i, "%s destination must be a register", in.Op)
		}
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		if len(in.Ops) != 2 {
			errf(i, "compare needs 2 operands, has %d", len(in.Ops))
		}
	case isa.OpJbrs, isa.OpJmp:
		if !hasLabelOp(in) {
			errf(i, "branch without a label operand")
		}
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		errf(i, "%s has no scalar form in this subset", in.Op)
	default:
		errf(i, "unimplemented scalar op %s", in.Op)
	}
}

// checkVectorShape mirrors vm.execVector/execVectorFunc's operand
// requirements and rejects vector forms with no Table 1 timing.
func checkVectorShape(in isa.Instr, i int, errf func(int, string, ...any)) {
	if _, ok := isa.VectorTiming(in.Op); !ok {
		errf(i, "%s has no vector form (no Table 1 timing)", in.Op)
		return
	}
	switch in.Op {
	case isa.OpLd:
		if !hasMemOp(in) {
			errf(i, "vector load without a memory operand")
			return
		}
		if d := in.Ops[len(in.Ops)-1]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf(i, "vector load destination must be a v-register")
		}
	case isa.OpSt:
		if !hasMemOp(in) {
			errf(i, "vector store without a memory operand")
			return
		}
		if s := in.Ops[0]; s.Kind != isa.KindReg || s.Reg.Class != isa.ClassV {
			errf(i, "vector store source must be a v-register")
		}
	case isa.OpSum:
		if len(in.Ops) != 2 || in.Ops[0].Kind != isa.KindReg || in.Ops[0].Reg.Class != isa.ClassV ||
			in.Ops[1].Kind != isa.KindReg || in.Ops[1].Reg.Class != isa.ClassS {
			errf(i, "sum needs v,s operands")
		}
	case isa.OpNeg, isa.OpMov, isa.OpSqrt:
		if len(in.Ops) != 2 {
			errf(i, "vector %s needs 2 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[1]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf(i, "vector %s destination must be a v-register", in.Op)
		}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv:
		if len(in.Ops) != 3 {
			errf(i, "vector %s needs 3 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[2]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf(i, "vector %s destination must be a v-register", in.Op)
		}
	default:
		// Timing exists but the simulator has no functional semantics
		// (vector and/or/shf/cvt): the program would fail mid-run.
		errf(i, "vector %s is not implemented by the simulator", in.Op)
	}
}

func hasMemOp(in isa.Instr) bool {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			return true
		}
	}
	return false
}

func hasLabelOp(in isa.Instr) bool {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			return true
		}
	}
	return false
}
