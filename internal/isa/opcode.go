package isa

// Op is an instruction mnemonic (without suffix).
type Op int

// Instruction mnemonics. The set mirrors the subset of the Convex C-series
// ISA exercised by the paper: memory operations, the add-pipe and
// multiply-pipe arithmetic families, moves, compares and branches.
const (
	OpNop  Op = iota
	OpLd      // load (scalar or vector by destination class)
	OpSt      // store
	OpAdd     // addition (add pipe)
	OpSub     // subtraction (add pipe)
	OpNeg     // negation (add pipe)
	OpAnd     // logical and (add pipe)
	OpOr      // logical or (add pipe)
	OpShf     // shift (add pipe)
	OpCvt     // data type conversion (add pipe)
	OpSum     // vector sum reduction (add pipe, writes scalar)
	OpMul     // multiplication (multiply pipe)
	OpDiv     // division (multiply pipe)
	OpSqrt    // square root (multiply pipe)
	OpMov     // register/immediate move (incl. mov s0,vl)
	OpLe      // compare: T = (op1 <= op2)
	OpLt      // compare: T = (op1 <  op2)
	OpGt      // compare: T = (op1 >  op2)
	OpGe      // compare: T = (op1 >= op2)
	OpEq      // compare: T = (op1 == op2)
	OpNe      // compare: T = (op1 != op2)
	OpJbrs    // conditional branch on T (suffix .t / .f)
	OpJmp     // unconditional branch
	OpHalt    // stop simulation (testing harness convenience)
	numOps
)

func (op Op) String() string {
	if op >= 0 && op < numOps && opTable[op].name != "" {
		return opTable[op].name
	}
	return "op?"
}

// OpByName resolves a mnemonic; ok is false for unknown mnemonics.
func OpByName(name string) (Op, bool) {
	for op := range opTable {
		if opTable[op].name == name {
			return Op(op), true
		}
	}
	return OpNop, false
}

// Suffix is the type suffix of an instruction (.l, .w, .d, .s, .t, .f).
type Suffix int

// Instruction suffixes. SufT/SufF select the branch sense of jbrs.
const (
	SufNone Suffix = iota
	SufL           // .l: 64-bit (long) memory access
	SufW           // .w: 32-bit word integer
	SufD           // .d: 64-bit double
	SufS           // .s: 32-bit single
	SufT           // .t: branch if T set
	SufF           // .f: branch if T clear
)

var sufNames = [...]string{SufNone: "", SufL: "l", SufW: "w", SufD: "d", SufS: "s", SufT: "t", SufF: "f"}

func (s Suffix) String() string {
	if s >= 0 && int(s) < len(sufNames) {
		return sufNames[s]
	}
	return "?"
}

// SuffixByName resolves a suffix letter.
func SuffixByName(name string) (Suffix, bool) {
	for s, n := range sufNames {
		if n == name && name != "" {
			return Suffix(s), true
		}
	}
	return SufNone, name == ""
}

// Pipe identifies a VP function pipe.
type Pipe int

// The three VP pipes (paper §2). Scalar instructions execute on the ASU
// (PipeNone).
const (
	PipeNone Pipe = iota
	PipeLoadStore
	PipeAdd
	PipeMul
)

func (p Pipe) String() string {
	switch p {
	case PipeLoadStore:
		return "load/store"
	case PipeAdd:
		return "add"
	case PipeMul:
		return "multiply"
	default:
		return "scalar"
	}
}

// Pipe returns the VP pipe an opcode uses when executed as a vector
// instruction. The add pipe handles all additions, population counts,
// shifts, logical functions and conversions; the multiply pipe handles
// multiplications, divisions, square roots (paper §2). Opcodes without a
// vector form use no pipe.
func (op Op) Pipe() Pipe {
	if op < 0 || op >= numOps {
		return PipeNone
	}
	return opTable[op].pipe
}

// OpClass is the MACS workload class of an operation.
type OpClass int

// MACS operation classes: f_a (FP additions), f_m (FP multiplications),
// l (loads), s (stores). ClassOther covers control and moves.
const (
	ClassOther OpClass = iota
	ClassFPAdd
	ClassFPMul
	ClassLoad
	ClassStore
)

func (c OpClass) String() string {
	switch c {
	case ClassFPAdd:
		return "fadd"
	case ClassFPMul:
		return "fmul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	default:
		return "other"
	}
}

// Class maps an opcode to its MACS class. Reductions count as additions
// (they run on the add pipe); divisions and square roots count as
// multiplications (multiply pipe).
func (op Op) Class() OpClass {
	if op < 0 || op >= numOps {
		return ClassOther
	}
	return opTable[op].class
}
