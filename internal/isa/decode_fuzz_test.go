package isa_test

import (
	"fmt"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/isa"
	"macs/internal/lfk"
)

// FuzzDecodeRefusesOldShapes builds instructions from bytes and checks
// that Decode refuses every one the static checker's per-instruction
// shape rules refused before Decode became the one rule (oldShape, a
// copy of them). Seeds are every instruction of the compiled LFKs and
// the programs the checker and the simulator once judged apart.
func FuzzDecodeRefusesOldShapes(f *testing.F) {
	for _, k := range lfk.All() {
		p, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			f.Fatalf("LFK%d does not compile: %v", k.ID, err)
		}
		for _, in := range p.Instrs {
			f.Add(bytesOf(in))
		}
	}
	p, err := asm.Parse("add.d a1,s0,s2\nand.d s0,s1,s2\nld.l a1,a2\nadd.d #1,a0\nmov #1,s0,s1\nsum.w s0,s1\n" +
		"le.d v0,v1\nadd.d v1,v2\nmov a0,v0\nand.d v0,v1,v2\nst.l v0,a1,a2,d_X(a3)\njbrs.t a1,s2,L\nL:\n.data d_X 64\n")
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range p.Instrs {
		f.Add(bytesOf(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := instrOf(b)
		if old := oldShape(in); old != "" {
			if _, err := isa.Decode(&in); err == nil {
				t.Fatalf("%s: Decode admits what the checker refused (%s)", in, old)
			}
		}
	})
}

// instrOf builds an instruction from fuzz bytes: an opcode (two past the
// table's end included), a suffix, then three bytes per operand (kind,
// register class, number), so every operand kind and every register
// class and number, in range or not, occurs.
func instrOf(b []byte) isa.Instr {
	if len(b) < 2 {
		return isa.Instr{}
	}
	in := isa.Instr{Op: isa.Op(int(b[0]) % (int(isa.OpHalt) + 3)), Suffix: isa.Suffix(b[1] % 7)}
	for b = b[2:]; len(b) >= 3 && len(in.Ops) < 8; b = b[3:] {
		reg := isa.Reg{Class: isa.RegClass(b[1] % 7), N: int(int8(b[2]))}
		switch b[0] % 5 {
		case 0:
			in.Ops = append(in.Ops, isa.Operand{})
		case 1:
			in.Ops = append(in.Ops, isa.RegOp(reg))
		case 2:
			in.Ops = append(in.Ops, isa.ImmOp(int64(int8(b[2]))))
		case 3:
			in.Ops = append(in.Ops, isa.MemOp("x", int64(int8(b[2])), reg))
		case 4:
			in.Ops = append(in.Ops, isa.LabelOp("L"))
		}
	}
	return in
}

// bytesOf is instrOf's inverse on the instructions a program holds.
func bytesOf(in isa.Instr) []byte {
	b := []byte{byte(in.Op), byte(in.Suffix)}
	for _, o := range in.Ops {
		switch o.Kind {
		case isa.KindReg:
			b = append(b, 1, byte(o.Reg.Class), byte(o.Reg.N))
		case isa.KindImm:
			b = append(b, 2, 0, byte(o.Imm))
		case isa.KindMem:
			b = append(b, 3, byte(o.Base.Class), byte(o.Base.N))
		case isa.KindLabel:
			b = append(b, 4, 0, 0)
		default:
			b = append(b, 0, 0, 0)
		}
	}
	return b
}

// oldShape is the static checker's per-instruction structural pass as it
// stood before isa.Decode took it over: its first message, or "" when it
// found nothing. Its program-level findings (undefined labels and data
// symbols) are not an instruction's shape and are left out.
func oldShape(in isa.Instr) string {
	var first string
	errf := func(format string, args ...any) {
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for _, o := range in.Ops {
		switch o.Kind {
		case isa.KindReg:
			if err := isa.CheckReg(o.Reg); err != nil {
				errf("%v", err)
			}
		case isa.KindMem:
			if o.Base.Class != isa.ClassA && o.Base.Class != isa.ClassNone {
				errf("memory base %s is not an a-register", o.Base)
			} else if o.Base.Class == isa.ClassA {
				if err := isa.CheckReg(o.Base); err != nil {
					errf("%v", err)
				}
			}
		}
	}
	if in.IsVector() {
		oldVectorShape(in, errf)
	} else {
		oldScalarShape(in, errf)
	}
	return first
}

func oldScalarShape(in isa.Instr, errf func(string, ...any)) {
	switch in.Op {
	case isa.OpNop, isa.OpHalt:
	case isa.OpMov:
		if len(in.Ops) != 2 {
			errf("mov needs 2 operands, has %d", len(in.Ops))
		} else if in.Ops[1].Kind != isa.KindReg {
			errf("mov destination must be a register")
		}
	case isa.OpLd:
		if len(in.Ops) != 2 {
			errf("scalar load needs 2 operands, has %d", len(in.Ops))
			return
		}
		if in.Ops[0].Kind != isa.KindMem {
			errf("scalar load source must be a memory operand")
		}
		if d := in.Ops[1]; d.Kind != isa.KindReg ||
			(d.Reg.Class != isa.ClassA && d.Reg.Class != isa.ClassS) {
			errf("scalar load destination must be an a- or s-register")
		}
	case isa.OpSt:
		if len(in.Ops) != 2 {
			errf("scalar store needs 2 operands, has %d", len(in.Ops))
			return
		}
		if s := in.Ops[0]; s.Kind != isa.KindReg ||
			(s.Reg.Class != isa.ClassA && s.Reg.Class != isa.ClassS) {
			errf("scalar store source must be an a- or s-register")
		}
		if in.Ops[1].Kind != isa.KindMem {
			errf("scalar store destination must be a memory operand")
		}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		if len(in.Ops) != 2 && len(in.Ops) != 3 {
			errf("%s needs 2 or 3 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[len(in.Ops)-1]; d.Kind != isa.KindReg {
			errf("%s destination must be a register", in.Op)
		}
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		if len(in.Ops) != 2 {
			errf("compare needs 2 operands, has %d", len(in.Ops))
		}
	case isa.OpJbrs, isa.OpJmp:
		if !hasKind(in, isa.KindLabel) {
			errf("branch without a label operand")
		}
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		errf("%s has no scalar form in this subset", in.Op)
	default:
		errf("unimplemented scalar op %s", in.Op)
	}
}

func oldVectorShape(in isa.Instr, errf func(string, ...any)) {
	if _, ok := isa.VectorTiming(in.Op); !ok {
		errf("%s has no vector form (no Table 1 timing)", in.Op)
		return
	}
	switch in.Op {
	case isa.OpLd:
		if !hasKind(in, isa.KindMem) {
			errf("vector load without a memory operand")
			return
		}
		if d := in.Ops[len(in.Ops)-1]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf("vector load destination must be a v-register")
		}
	case isa.OpSt:
		if !hasKind(in, isa.KindMem) {
			errf("vector store without a memory operand")
			return
		}
		if s := in.Ops[0]; s.Kind != isa.KindReg || s.Reg.Class != isa.ClassV {
			errf("vector store source must be a v-register")
		}
	case isa.OpSum:
		if len(in.Ops) != 2 || in.Ops[0].Kind != isa.KindReg || in.Ops[0].Reg.Class != isa.ClassV ||
			in.Ops[1].Kind != isa.KindReg || in.Ops[1].Reg.Class != isa.ClassS {
			errf("sum needs v,s operands")
		}
	case isa.OpNeg, isa.OpMov, isa.OpSqrt:
		if len(in.Ops) != 2 {
			errf("vector %s needs 2 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[1]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf("vector %s destination must be a v-register", in.Op)
		}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv:
		if len(in.Ops) != 3 {
			errf("vector %s needs 3 operands, has %d", in.Op, len(in.Ops))
			return
		}
		if d := in.Ops[2]; d.Kind != isa.KindReg || d.Reg.Class != isa.ClassV {
			errf("vector %s destination must be a v-register", in.Op)
		}
	default:
		errf("vector %s is not implemented by the simulator", in.Op)
	}
}

func hasKind(in isa.Instr, k isa.OperandKind) bool {
	for _, o := range in.Ops {
		if o.Kind == k {
			return true
		}
	}
	return false
}
