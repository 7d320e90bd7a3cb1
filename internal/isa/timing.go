package isa

// Timing holds the X/Y/Z/B parameters of one vector instruction type
// (paper Table 1, VL = 128):
//
//	X  clock cycles of initial overhead,
//	Y  additional cycles until the first element result is available,
//	Z  additional cycles per vector element,
//	B  empirically observed tailgating bubble between successive
//	   instructions in a pipe (handshaking restart penalty).
type Timing struct {
	X int
	Y int
	Z float64
	B int
}

// opInfo is one opcode's row of the opcode table: its mnemonic and
// either its vector form — the Table 1 timing, the VP pipe and the MACS
// class — or a mark that it deliberately has none.
type opInfo struct {
	name       string
	timing     Timing
	vector     bool // has a Table 1 row
	scalarOnly bool
	pipe       Pipe
	class      OpClass
}

func vectorOp(name string, pipe Pipe, class OpClass, t Timing) opInfo {
	return opInfo{name: name, timing: t, vector: true, pipe: pipe, class: class}
}

// scalarOp marks an opcode with no vector form: control flow, compares
// (which set the scalar T flag) and the testing halt.
func scalarOp(name string) opInfo { return opInfo{name: name, scalarOnly: true} }

// opTable is the one opcode table, indexed by Op. Every opcode has a
// name and exactly one of a Table 1 row or a scalar-only mark
// (TestOpTimingPartition walks it), so an opcode cannot be added without
// deciding its vector timing. The timings are Table 1 of the paper;
// vector reduction uses the conservative Z = 1.35 with B = 0 (footnote
// b), vector divide has the long Y and Z = 4 (footnote a: masked by
// other instructions absent a resource conflict). Vector register moves
// run on the add pipe.
var opTable = [numOps]opInfo{
	OpNop:  scalarOp("nop"),
	OpLd:   vectorOp("ld", PipeLoadStore, ClassLoad, Timing{X: 2, Y: 10, Z: 1.00, B: 2}),
	OpSt:   vectorOp("st", PipeLoadStore, ClassStore, Timing{X: 2, Y: 10, Z: 1.00, B: 4}),
	OpAdd:  vectorOp("add", PipeAdd, ClassFPAdd, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpSub:  vectorOp("sub", PipeAdd, ClassFPAdd, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpNeg:  vectorOp("neg", PipeAdd, ClassFPAdd, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpAnd:  vectorOp("and", PipeAdd, ClassOther, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpOr:   vectorOp("or", PipeAdd, ClassOther, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpShf:  vectorOp("shf", PipeAdd, ClassOther, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpCvt:  vectorOp("cvt", PipeAdd, ClassOther, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpSum:  vectorOp("sum", PipeAdd, ClassFPAdd, Timing{X: 2, Y: 10, Z: 1.35, B: 0}),
	OpMul:  vectorOp("mul", PipeMul, ClassFPMul, Timing{X: 2, Y: 12, Z: 1.00, B: 1}),
	OpDiv:  vectorOp("div", PipeMul, ClassFPMul, Timing{X: 2, Y: 72, Z: 4.00, B: 21}),
	OpSqrt: vectorOp("sqrt", PipeMul, ClassFPMul, Timing{X: 2, Y: 72, Z: 4.00, B: 21}),
	OpMov:  vectorOp("mov", PipeAdd, ClassOther, Timing{X: 2, Y: 10, Z: 1.00, B: 1}),
	OpLe:   scalarOp("le"),
	OpLt:   scalarOp("lt"),
	OpGt:   scalarOp("gt"),
	OpGe:   scalarOp("ge"),
	OpEq:   scalarOp("eq"),
	OpNe:   scalarOp("ne"),
	OpJbrs: scalarOp("jbrs"),
	OpJmp:  scalarOp("jmp"),
	OpHalt: scalarOp("halt"),
}

// VectorTiming returns the Table 1 parameters for an opcode executed as a
// vector instruction; ok is false for opcodes with no vector form.
func VectorTiming(op Op) (Timing, bool) {
	if op < 0 || op >= numOps {
		return Timing{}, false
	}
	return opTable[op].timing, opTable[op].vector
}

// ScalarOnly reports whether an opcode is declared to have no vector form.
func ScalarOnly(op Op) bool { return op >= 0 && op < numOps && opTable[op].scalarOnly }

// Machine-level constants of the Convex C-240 (paper §2, §3.2).
const (
	// ClockNS is the effective system clock period in nanoseconds.
	ClockNS = 40
	// ClockMHz is the clock rate in MHz, used for MFLOPS conversion.
	ClockMHz = 25.0
	// MemBanks is the number of interleaved memory banks.
	MemBanks = 32
	// BankCycle is the bank busy time in clock cycles.
	BankCycle = 8
	// WordBytes is the memory word size in bytes.
	WordBytes = 8
	// RefreshPeriod is the interval between memory refreshes, in cycles.
	RefreshPeriod = 400
	// RefreshLen is the duration of one refresh, in cycles.
	RefreshLen = 8
	// RefreshFactor is the MACS-bound multiplier applied to groups of four
	// or more successive chimes that each include a memory operation.
	RefreshFactor = 1.02
	// PairMaxReads and PairMaxWrites bound references to one vector
	// register pair within a single chime.
	PairMaxReads  = 2
	PairMaxWrites = 1
)

// CPFToMFLOPS converts an average cycles-per-flop figure to MFLOPS at the
// C-240 clock rate (paper Eq. 4).
func CPFToMFLOPS(avgCPF float64) float64 {
	if avgCPF <= 0 {
		return 0
	}
	return ClockMHz / avgCPF
}
