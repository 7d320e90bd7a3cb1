package isa

import "fmt"

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

// Decode lowers one instruction into its Row. It fails when the
// instruction reads more than MaxReads registers or reads or writes a
// register CheckReg rejects (asm.Program.Validate and the static checker
// reject those with the same message).
func Decode(in *Instr) (Row, error) {
	r := Row{Instr: in, Op: in.Op, Vector: in.IsVector(), Mem: in.IsMemory(), MemOp: -1}
	r.Timing, r.Timed = VectorTiming(in.Op)
	if r.Vector {
		r.Pipe, r.Class = in.Op.Pipe(), in.Op.Class()
	}
	dst, hasDst := in.Dst()
	if hasDst {
		if err := CheckReg(dst); err != nil {
			return Row{}, err
		}
		r.Dst = dst
	}

	var reads [MaxReads]Reg
	n := 0
	add := func(reg Reg) {
		if n < MaxReads {
			reads[n] = reg
		}
		n++
	}
	last := len(in.Ops) - 1
	for i, o := range in.Ops {
		switch o.Kind {
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
	for i, reg := range reads[:n] {
		if err := CheckReg(reg); err != nil {
			return Row{}, err
		}
		if i >= nSrc {
			continue
		}
		switch reg.Class {
		case ClassS:
			r.sSrc |= 1 << reg.N
		case ClassV:
			r.vSrc[r.nV] = uint8(reg.N)
			r.nV++
		}
	}
	r.reads, r.nReads, r.nSrc = reads, uint8(n), uint8(nSrc)
	return r, nil
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
