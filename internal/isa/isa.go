// Package isa defines the Convex C-240-style instruction set used throughout
// this repository: register files, operands, instructions, and the static
// classification (pipe assignment, operation class) that the MACS bounds
// model and the cycle-level simulator both consume.
//
// The instruction syntax follows the assembly listings in the paper, e.g.
//
//	ld.l  space1+40120(a5),v0
//	mul.d v0,s1,v1
//	add.w #1024,a5
//	jbrs.t L7
//
// An instruction is a *vector* instruction iff it touches at least one of
// the eight vector registers v0..v7 (paper §3.5).
package isa

import "fmt"

// RegClass identifies a register file.
type RegClass int

// Register file classes of the C-240 CPU.
const (
	ClassNone RegClass = iota
	ClassA             // address registers a0..a7 (ASU)
	ClassS             // scalar registers s0..s7 (ASU)
	ClassV             // vector registers v0..v7 (VP), 128 x 64-bit elements
	ClassVL            // vector length register
	ClassVS            // vector stride register (bytes)
)

func (c RegClass) String() string {
	switch c {
	case ClassA:
		return "a"
	case ClassS:
		return "s"
	case ClassV:
		return "v"
	case ClassVL:
		return "vl"
	case ClassVS:
		return "vs"
	default:
		return "?"
	}
}

// NumVRegs is the number of vector registers; VLMax is the hardware vector
// length (elements per vector register).
const (
	NumVRegs = 8
	NumARegs = 8
	NumSRegs = 8
	VLMax    = 128
)

// Reg names one register.
type Reg struct {
	Class RegClass
	N     int
}

// Convenience constructors for registers.
func A(n int) Reg          { return Reg{ClassA, n} }
func S(n int) Reg          { return Reg{ClassS, n} }
func V(n int) Reg          { return Reg{ClassV, n} }
func VL() Reg              { return Reg{Class: ClassVL} }
func VS() Reg              { return Reg{Class: ClassVS} }
func NoReg() Reg           { return Reg{} }
func (r Reg) IsZero() bool { return r.Class == ClassNone }

func (r Reg) String() string {
	switch r.Class {
	case ClassVL, ClassVS:
		return r.Class.String()
	case ClassNone:
		return "-"
	default:
		return fmt.Sprintf("%s%d", r.Class, r.N)
	}
}

// Pair returns the vector register pair index for a vector register.
// The C-240 pairs are {v0,v4} {v1,v5} {v2,v6} {v3,v7}: per chime at most
// two reads and one write may reference each pair (paper §3.3).
func (r Reg) Pair() int {
	if r.Class != ClassV {
		return -1
	}
	return r.N % 4
}

// OperandKind discriminates Operand contents.
type OperandKind int

// Operand kinds.
const (
	KindNone  OperandKind = iota
	KindReg               // register operand
	KindImm               // #immediate
	KindMem               // sym+disp(base) memory operand
	KindLabel             // branch target
)

// Operand is one assembly operand.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Imm   int64
	Base  Reg    // KindMem: base address register
	Disp  int64  // KindMem: byte displacement
	Sym   string // KindMem: optional symbol (resolved by the loader)
	Label string // KindLabel
}

// RegOp, ImmOp, MemOp and LabelOp build operands.
func RegOp(r Reg) Operand      { return Operand{Kind: KindReg, Reg: r} }
func ImmOp(v int64) Operand    { return Operand{Kind: KindImm, Imm: v} }
func LabelOp(l string) Operand { return Operand{Kind: KindLabel, Label: l} }
func MemOp(sym string, disp int64, base Reg) Operand {
	return Operand{Kind: KindMem, Base: base, Disp: disp, Sym: sym}
}

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("#%d", o.Imm)
	case KindMem:
		s := ""
		switch {
		case o.Sym != "" && o.Disp > 0:
			s = fmt.Sprintf("%s+%d", o.Sym, o.Disp)
		case o.Sym != "" && o.Disp < 0:
			s = fmt.Sprintf("%s-%d", o.Sym, -o.Disp)
		case o.Sym != "":
			s = o.Sym
		default:
			s = fmt.Sprintf("%d", o.Disp)
		}
		if o.Base.Class == ClassNone {
			return s
		}
		return fmt.Sprintf("%s(%s)", s, o.Base)
	case KindLabel:
		return o.Label
	default:
		return ""
	}
}

// Instr is one machine instruction. Ops appear in assembly order; the
// destination position depends on the opcode (loads and ALU ops write the
// last operand, stores read the first and write memory).
type Instr struct {
	Op      Op
	Suffix  Suffix
	Ops     []Operand
	Label   string // label defined at this instruction, if any
	Comment string
}

// String renders the instruction in the paper's assembly syntax.
func (in Instr) String() string {
	s := in.mnemonic()
	for i, o := range in.Ops {
		if i == 0 {
			s += " " + o.String()
		} else {
			s += "," + o.String()
		}
	}
	if in.Comment != "" {
		s += " ; " + in.Comment
	}
	return s
}

// mnemonic is the opcode with its suffix, e.g. "add.d".
func (in Instr) mnemonic() string {
	if in.Suffix == SufNone {
		return in.Op.String()
	}
	return in.Op.String() + "." + in.Suffix.String()
}

// IsFloat reports a floating-point form (a .d or .s suffix): its scalar
// operands are real values, not integers.
func (in Instr) IsFloat() bool { return in.Suffix == SufD || in.Suffix == SufS }

// IsVector reports whether the instruction touches any vector register
// (the paper's definition of a vector instruction).
func (in Instr) IsVector() bool {
	for i := range in.Ops {
		if o := &in.Ops[i]; o.Kind == KindReg && o.Reg.Class == ClassV {
			return true
		}
	}
	return false
}

// IsMemory reports whether the instruction accesses memory (scalar or
// vector load/store).
func (in Instr) IsMemory() bool { return in.Op == OpLd || in.Op == OpSt }

// IsLoad and IsStore refine IsMemory.
func (in Instr) IsLoad() bool  { return in.Op == OpLd }
func (in Instr) IsStore() bool { return in.Op == OpSt }

// IsBranch reports whether the instruction may transfer control.
func (in Instr) IsBranch() bool { return in.Op == OpJbrs || in.Op == OpJmp }

// Pipe returns the VP function pipe the instruction executes on, or
// PipeNone for scalar instructions.
func (in Instr) Pipe() Pipe {
	if !in.IsVector() {
		return PipeNone
	}
	return in.Op.Pipe()
}

// Class returns the MACS operation class (FP add, FP multiply, load, store
// or other) of the instruction when treated as a vector instruction.
func (in Instr) Class() OpClass {
	if !in.IsVector() {
		return ClassOther
	}
	return in.Op.Class()
}

// Dst returns the register written by the instruction, if any. Stores and
// branches write no register; compare instructions write the test flag,
// which is not modeled as a Reg.
func (in Instr) Dst() (Reg, bool) {
	switch in.Op {
	case OpSt, OpJbrs, OpJmp, OpLe, OpLt, OpGt, OpGe, OpEq, OpNe, OpNop, OpHalt:
		return Reg{}, false
	}
	if len(in.Ops) == 0 {
		return Reg{}, false
	}
	last := in.Ops[len(in.Ops)-1]
	if last.Kind != KindReg {
		return Reg{}, false
	}
	return last.Reg, true
}
