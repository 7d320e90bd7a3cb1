package isa

import (
	"errors"
	"fmt"
)

// MaxReads bounds the registers one decoded instruction may read. A
// well-formed instruction reads at most four (a vector store: its value
// register, its base, VL and VS); Decode rejects an instruction that
// reads more, so no consumer of a Row ever sees a truncated read set.
const MaxReads = 6

// Row is one instruction's static facts, decoded once per program
// (Decode) and read by the simulator, the chime builder and the static
// passes instead of re-deriving them on every execution or walk.
type Row struct {
	// Instr is the decoded instruction.
	Instr *Instr
	Op    Op
	// Vector reports whether the instruction touches a vector register
	// (the paper's definition of a vector instruction); Mem whether it
	// is a load or store.
	Vector bool
	Mem    bool
	// Timed reports whether the opcode has a Table 1 row, Timing.
	Timed  bool
	Timing Timing
	// Pipe and Class are the VP pipe and MACS class of a vector
	// instruction; PipeNone and ClassOther for a scalar one.
	Pipe  Pipe
	Class OpClass
	// Dst is the register written (Instr.Dst), the zero Reg when none.
	Dst Reg
	// MemOp indexes the first memory operand in Instr.Ops, -1 for none.
	MemOp int

	// reads holds every register read, in assembly order: register
	// sources and memory bases, then the implicit VL (every vector
	// instruction) and VS (vector memory access), then the destination
	// of a two-operand ALU form, which computes dst = dst OP src.
	// reads[:nSrc] excludes that destination read.
	reads  [MaxReads]Reg
	nReads uint8
	nSrc   uint8
	// vSrc numbers the v registers among the sources, in order; sSrc
	// has bit n set when sn is among them.
	vSrc [MaxReads]uint8
	nV   uint8
	sSrc uint8
}

// Reads returns every register the instruction reads: its explicit and
// implicit sources plus the destination of a two-operand ALU form. It is
// the read set of the dependence graph and of use-before-definition.
func (r *Row) Reads() []Reg { return r.reads[:r.nReads] }

// VectorReads returns the numbers of the v registers among the
// instruction's sources, in assembly order: what chaining and the
// register-pair chime rule see.
func (r *Row) VectorReads() []uint8 { return r.vSrc[:r.nV] }

// ScalarReads returns the s registers among the instruction's sources as
// a bit set (bit n for sn): what a vector instruction waits for when a
// vector reduction produces one of them.
func (r *Row) ScalarReads() uint8 { return r.sSrc }

// VectorWrite returns the number of the v register the instruction
// writes; ok is false when it writes none.
func (r *Row) VectorWrite() (n int, ok bool) {
	if r.Dst.Class != ClassV {
		return 0, false
	}
	return r.Dst.N, true
}

// Decode lowers one instruction into its Row. It is the one rule for
// what the simulator executes: it refuses, with one message, a register
// outside its file, a memory base that is not an a-register, a read set
// larger than MaxReads and operands that are no form of the opcode
// (scalarForm, vectorForm). The static checker reports that refusal; the simulator
// and the explore predictor refuse the program at load with it, so
// neither checks an operand while it runs.
//
// Refused for its form alone, an instruction still gets its whole Row
// beside the error, so the static checker can report its other faults
// (a read before definition); every other caller discards it. Otherwise
// a refusal returns the zero Row.
func Decode(in *Instr) (Row, error) {
	if err := checkOperands(in); err != nil {
		return Row{}, err
	}
	r := Row{Instr: in, Op: in.Op, Vector: in.IsVector(), Mem: in.IsMemory(), MemOp: -1}
	r.Timing, r.Timed = VectorTiming(in.Op)
	if r.Vector {
		r.Pipe, r.Class = in.Op.Pipe(), in.Op.Class()
	}
	dst, hasDst := in.Dst()
	r.Dst = dst

	var reads [MaxReads]Reg
	n := 0
	add := func(reg Reg) {
		if n < MaxReads {
			reads[n] = reg
		}
		n++
	}
	last := len(in.Ops) - 1
	for i := range in.Ops {
		switch o := &in.Ops[i]; o.Kind {
		case KindReg:
			// The last operand is the destination except for stores,
			// compares and branches, which read every register operand.
			if i != last || readsLastOperand(in.Op) {
				add(o.Reg)
			}
		case KindMem:
			if r.MemOp < 0 {
				r.MemOp = i
			}
			if !o.Base.IsZero() {
				add(o.Base)
			}
		}
	}
	if r.Vector {
		add(VL())
		if r.Mem {
			add(VS())
		}
	}
	nSrc := n
	if hasDst && twoOperandALU(in) {
		add(dst)
	}
	if n > MaxReads {
		return Row{}, fmt.Errorf("reads %d registers, more than the %d an instruction may read", n, MaxReads)
	}
	for _, reg := range reads[:nSrc] {
		switch reg.Class {
		case ClassS:
			r.sSrc |= 1 << reg.N
		case ClassV:
			r.vSrc[r.nV] = uint8(reg.N)
			r.nV++
		}
	}
	r.reads, r.nReads, r.nSrc = reads, uint8(n), uint8(nSrc)
	if r.Vector {
		return r, vectorForm(in)
	}
	return r, scalarForm(in)
}

// operands is a set of operand classes, one bit each: what one position
// of an instruction form admits.
type operands uint8

const (
	opImm operands = 1 << iota
	opA
	opS
	opV
	opVL
	opVS
	opMem
)

// The classes of the form positions. The ASU reads an integer from an
// immediate or an a, s, vl or vs register and writes one to any of those
// registers; it reads a float from an immediate or an s register. A
// vector instruction streams a v register or broadcasts an s register or
// an immediate.
const (
	intSrc = opImm | opA | opS | opVL | opVS
	intDst = opA | opS | opVL | opVS
	fltSrc = opImm | opS
	vecSrc = opImm | opS | opV
	aOrS   = opA | opS
)

// is reports whether operand o is of a class in set.
func is(o *Operand, set operands) bool {
	var c operands
	switch o.Kind {
	case KindImm:
		c = opImm
	case KindMem:
		c = opMem
	case KindReg:
		switch o.Reg.Class {
		case ClassA:
			c = opA
		case ClassS:
			c = opS
		case ClassV:
			c = opV
		case ClassVL:
			c = opVL
		case ClassVS:
			c = opVS
		}
	}
	return c&set != 0
}

// has reports whether any operand is of kind k.
func has(ops []Operand, k OperandKind) bool {
	for i := range ops {
		if ops[i].Kind == k {
			return true
		}
	}
	return false
}

// sources refuses the first operand of srcs outside set, naming the
// instruction and what set admits.
func sources(in *Instr, srcs []Operand, set operands, what string) error {
	for i := range srcs {
		if !is(&srcs[i], set) {
			name := in.mnemonic()
			if in.IsVector() {
				name = "vector " + in.Op.String()
			}
			return fmt.Errorf("%s operand %s must be %s", name, srcs[i], what)
		}
	}
	return nil
}

// checkOperands refuses a register operand outside its file and a memory
// base that is not an a-register: operands no Row can hold.
func checkOperands(in *Instr) error {
	for i := range in.Ops {
		switch o := &in.Ops[i]; o.Kind {
		case KindReg:
			if err := CheckReg(o.Reg); err != nil {
				return err
			}
		case KindMem:
			if o.Base.IsZero() {
				continue
			}
			if o.Base.Class != ClassA {
				return fmt.Errorf("memory base %s is not an a-register", o.Base)
			}
			if err := CheckReg(o.Base); err != nil {
				return err
			}
		}
	}
	return nil
}

// scalarForm is the ASU's rule. A move copies an integer source into a
// register; a load reads its memory operand into an a or s register and
// a store writes one to its memory operand; a compare reads two sources
// and a branch takes one operand, its label. nop and halt take anything.
func scalarForm(in *Instr) error {
	ops, n := in.Ops, len(in.Ops)
	switch in.Op {
	case OpNop, OpHalt:
	case OpMov:
		switch {
		case n != 2:
			return fmt.Errorf("mov needs 2 operands, has %d", n)
		case !is(&ops[1], intDst):
			return errors.New("mov destination must be a register")
		}
		return sources(in, ops[:1], intSrc, "a register or an immediate")
	case OpLd:
		switch {
		case n != 2:
			return fmt.Errorf("scalar load needs 2 operands, has %d", n)
		case ops[0].Kind != KindMem:
			return errors.New("scalar load source must be a memory operand")
		case !is(&ops[1], aOrS):
			return errors.New("scalar load destination must be an a- or s-register")
		}
	case OpSt:
		switch {
		case n != 2:
			return fmt.Errorf("scalar store needs 2 operands, has %d", n)
		case !is(&ops[0], aOrS):
			return errors.New("scalar store source must be an a- or s-register")
		case ops[1].Kind != KindMem:
			return errors.New("scalar store destination must be a memory operand")
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpNeg, OpAnd, OpOr, OpShf:
		return aluForm(in)
	case OpLe, OpLt, OpGt, OpGe, OpEq, OpNe:
		switch {
		case n != 2:
			return fmt.Errorf("compare needs 2 operands, has %d", n)
		case in.IsFloat():
			return sources(in, ops, fltSrc, "an s-register or an immediate")
		}
		return sources(in, ops, intSrc, "a register or an immediate")
	case OpJbrs, OpJmp:
		switch {
		case !has(ops, KindLabel):
			return errors.New("branch without a label operand")
		case n != 1:
			return fmt.Errorf("branch needs 1 operand, its label, has %d", n)
		}
	case OpSum, OpSqrt, OpCvt:
		return fmt.Errorf("%s has no scalar form in this subset", in.Op)
	default:
		return fmt.Errorf("unimplemented scalar op %s", in.Op)
	}
	return nil
}

// aluForm is the ASU arithmetic rule: dst = src1 OP src2, or the
// two-operand dst = dst OP src (neg: dst = -src). An integer form reads
// and writes any a, s, vl or vs register; a floating-point one (.d, .s)
// only s registers, and and, or and shf have none.
func aluForm(in *Instr) error {
	ops, n := in.Ops, len(in.Ops)
	switch {
	case n != 2 && n != 3:
		return fmt.Errorf("%s needs 2 or 3 operands, has %d", in.Op, n)
	case in.Op == OpNeg && n != 2:
		return fmt.Errorf("neg needs 2 operands, has %d", n)
	case ops[n-1].Kind != KindReg:
		return fmt.Errorf("%s destination must be a register", in.Op)
	case !in.IsFloat():
		return sources(in, ops[:n-1], intSrc, "a register or an immediate")
	case in.Op == OpAnd || in.Op == OpOr || in.Op == OpShf:
		return fmt.Errorf("%s has no floating-point form", in.mnemonic())
	case !is(&ops[n-1], opS):
		return fmt.Errorf("%s destination %s must be an s-register", in.mnemonic(), ops[n-1])
	}
	return sources(in, ops[:n-1], fltSrc, "an s-register or an immediate")
}

// vectorForm is the VP's rule: the opcode has a Table 1 row and the
// simulator's semantics. A load streams its memory operand into a v
// register (mem,v) and a store a v register to its memory operand
// (v,mem): one of the two operands is a v register, or the instruction
// would not be vector. A reduction sums a v register into an s register.
// Every other form streams its sources — v registers, or s registers and
// immediates broadcast — into a v register, its last operand: neg, mov
// and sqrt take one source, add, sub, mul and div two.
func vectorForm(in *Instr) error {
	if _, ok := VectorTiming(in.Op); !ok {
		return fmt.Errorf("%s has no vector form (no Table 1 timing)", in.Op)
	}
	ops, n := in.Ops, len(in.Ops)
	want := 3
	switch in.Op {
	case OpLd:
		switch {
		case !has(ops, KindMem):
			return errors.New("vector load without a memory operand")
		case n != 2:
			return fmt.Errorf("vector load needs 2 operands, has %d", n)
		case !is(&ops[1], opV):
			return errors.New("vector load destination must be a v-register")
		}
		return nil
	case OpSt:
		switch {
		case !has(ops, KindMem):
			return errors.New("vector store without a memory operand")
		case n != 2:
			return fmt.Errorf("vector store needs 2 operands, has %d", n)
		case !is(&ops[0], opV):
			return errors.New("vector store source must be a v-register")
		}
		return nil
	case OpSum:
		if n != 2 || !is(&ops[0], opV) || !is(&ops[1], opS) {
			return errors.New("sum needs v,s operands")
		}
		return nil
	case OpNeg, OpMov, OpSqrt:
		want = 2
	case OpAdd, OpSub, OpMul, OpDiv:
	default:
		return fmt.Errorf("vector %s is not implemented by the simulator", in.Op)
	}
	switch {
	case n != want:
		return fmt.Errorf("vector %s needs %d operands, has %d", in.Op, want, n)
	case !is(&ops[n-1], opV):
		return fmt.Errorf("vector %s destination must be a v-register", in.Op)
	}
	return sources(in, ops[:n-1], vecSrc, "a v- or s-register or an immediate")
}

// readsLastOperand reports the opcodes whose last register operand is a
// source rather than the destination.
func readsLastOperand(op Op) bool {
	switch op {
	case OpSt, OpLe, OpLt, OpGt, OpGe, OpEq, OpNe, OpJbrs, OpJmp:
		return true
	}
	return false
}

// twoOperandALU reports the two-operand ALU forms, dst = dst OP src,
// whose destination is also read.
func twoOperandALU(in *Instr) bool {
	if len(in.Ops) != 2 {
		return false
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpShf:
		return true
	}
	return false
}

// CheckReg rejects a register outside its file, or of no file at all:
// one a Row cannot index and the simulator cannot hold.
func CheckReg(r Reg) error {
	n := 0
	switch r.Class {
	case ClassA:
		n = NumARegs
	case ClassS:
		n = NumSRegs
	case ClassV:
		n = NumVRegs
	case ClassVL, ClassVS:
		return nil
	default:
		return fmt.Errorf("invalid register class")
	}
	if r.N < 0 || r.N >= n {
		return fmt.Errorf("register %s%d out of range", r.Class, r.N)
	}
	return nil
}
