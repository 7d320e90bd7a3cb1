package isa

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	tests := []struct {
		r    Reg
		want string
	}{
		{A(5), "a5"},
		{S(0), "s0"},
		{V(7), "v7"},
		{VL(), "vl"},
		{VS(), "vs"},
		{NoReg(), "-"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Reg%v.String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestRegPair(t *testing.T) {
	// {v0,v4} {v1,v5} {v2,v6} {v3,v7} are the register pairs.
	for n := 0; n < NumVRegs; n++ {
		want := n % 4
		if got := V(n).Pair(); got != want {
			t.Errorf("V(%d).Pair() = %d, want %d", n, got, want)
		}
	}
	if got := S(3).Pair(); got != -1 {
		t.Errorf("S(3).Pair() = %d, want -1", got)
	}
	if got := A(0).Pair(); got != -1 {
		t.Errorf("A(0).Pair() = %d, want -1", got)
	}
}

func TestPairMembership(t *testing.T) {
	if V(0).Pair() != V(4).Pair() {
		t.Error("v0 and v4 should share a pair")
	}
	if V(2).Pair() != V(6).Pair() {
		t.Error("v2 and v6 should share a pair")
	}
	if V(0).Pair() == V(1).Pair() {
		t.Error("v0 and v1 should not share a pair")
	}
}

func TestOperandString(t *testing.T) {
	tests := []struct {
		o    Operand
		want string
	}{
		{RegOp(V(2)), "v2"},
		{ImmOp(1024), "#1024"},
		{MemOp("space1", 40120, A(5)), "space1+40120(a5)"},
		{MemOp("", 16, A(2)), "16(a2)"},
		{MemOp("x", 0, A(1)), "x(a1)"},
		{LabelOp("L7"), "L7"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("Operand.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{
		Op:     OpLd,
		Suffix: SufL,
		Ops:    []Operand{MemOp("space1", 40120, A(5)), RegOp(V(0))},
	}
	want := "ld.l space1+40120(a5),v0"
	if got := in.String(); got != want {
		t.Errorf("Instr.String() = %q, want %q", got, want)
	}
	in2 := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(V(0)), RegOp(S(1)), RegOp(V(1))}}
	if got, want := in2.String(), "mul.d v0,s1,v1"; got != want {
		t.Errorf("Instr.String() = %q, want %q", got, want)
	}
}

func TestIsVector(t *testing.T) {
	vload := Instr{Op: OpLd, Suffix: SufL, Ops: []Operand{MemOp("", 0, A(5)), RegOp(V(0))}}
	sload := Instr{Op: OpLd, Suffix: SufL, Ops: []Operand{MemOp("", 0, A(5)), RegOp(S(0))}}
	vmulScalarOperand := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(V(0)), RegOp(S(1)), RegOp(V(1))}}
	smul := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(S(0)), RegOp(S(1)), RegOp(S(2))}}

	if !vload.IsVector() {
		t.Error("vector load not classified as vector")
	}
	if sload.IsVector() {
		t.Error("scalar load classified as vector")
	}
	if !vmulScalarOperand.IsVector() {
		t.Error("vector multiply with scalar operand not classified as vector")
	}
	if smul.IsVector() {
		t.Error("scalar multiply classified as vector")
	}
}

func TestPipeAssignment(t *testing.T) {
	tests := []struct {
		op   Op
		want Pipe
	}{
		{OpLd, PipeLoadStore},
		{OpSt, PipeLoadStore},
		{OpAdd, PipeAdd},
		{OpSub, PipeAdd},
		{OpNeg, PipeAdd},
		{OpSum, PipeAdd},
		{OpCvt, PipeAdd},
		{OpShf, PipeAdd},
		{OpAnd, PipeAdd},
		{OpMul, PipeMul},
		{OpDiv, PipeMul},
		{OpSqrt, PipeMul},
		{OpJmp, PipeNone},
		{OpMov, PipeAdd}, // vector moves use the add pipe; scalar moves never ask
	}
	for _, tt := range tests {
		if got := tt.op.Pipe(); got != tt.want {
			t.Errorf("%v.Pipe() = %v, want %v", tt.op, got, tt.want)
		}
	}
}

func TestScalarInstrHasNoPipe(t *testing.T) {
	smul := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(S(0)), RegOp(S(1)), RegOp(S(2))}}
	if got := smul.Pipe(); got != PipeNone {
		t.Errorf("scalar mul Pipe() = %v, want PipeNone", got)
	}
	vmul := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(V(0)), RegOp(V(1)), RegOp(V(2))}}
	if got := vmul.Pipe(); got != PipeMul {
		t.Errorf("vector mul Pipe() = %v, want PipeMul", got)
	}
}

func TestOpClass(t *testing.T) {
	tests := []struct {
		op   Op
		want OpClass
	}{
		{OpAdd, ClassFPAdd},
		{OpSub, ClassFPAdd},
		{OpNeg, ClassFPAdd},
		{OpSum, ClassFPAdd},
		{OpMul, ClassFPMul},
		{OpDiv, ClassFPMul},
		{OpSqrt, ClassFPMul},
		{OpLd, ClassLoad},
		{OpSt, ClassStore},
		{OpMov, ClassOther},
		{OpJbrs, ClassOther},
	}
	for _, tt := range tests {
		if got := tt.op.Class(); got != tt.want {
			t.Errorf("%v.Class() = %v, want %v", tt.op, got, tt.want)
		}
	}
}

// decode is Decode for a test instruction that must decode.
func decode(t *testing.T, in Instr) Row {
	t.Helper()
	r, err := Decode(&in)
	if err != nil {
		t.Fatalf("Decode(%s): %v", in, err)
	}
	return r
}

func TestDstAndSources(t *testing.T) {
	// mul.d v0,s1,v1: reads v0, s1, vl; writes v1.
	in := Instr{Op: OpMul, Suffix: SufD, Ops: []Operand{RegOp(V(0)), RegOp(S(1)), RegOp(V(1))}}
	d, ok := in.Dst()
	if !ok || d != V(1) {
		t.Fatalf("Dst() = %v,%v, want v1,true", d, ok)
	}
	r := decode(t, in)
	if r.Dst != V(1) {
		t.Errorf("row Dst = %v, want v1", r.Dst)
	}
	if got, want := r.Reads(), []Reg{V(0), S(1), VL()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Reads() = %v, want %v", got, want)
	}
	if got := r.ScalarReads(); got != 1<<1 {
		t.Errorf("ScalarReads() = %08b, want s1 only", got)
	}
	if got := r.VectorReads(); !reflect.DeepEqual(got, []uint8{0}) {
		t.Errorf("VectorReads() = %v, want [0]", got)
	}
}

func TestStoreReadsValueRegister(t *testing.T) {
	// st.l v0,x(a5): reads v0, a5, vl, vs; writes nothing.
	in := Instr{Op: OpSt, Suffix: SufL, Ops: []Operand{RegOp(V(0)), MemOp("x", 0, A(5))}}
	if _, ok := in.Dst(); ok {
		t.Error("store should have no register destination")
	}
	r := decode(t, in)
	if !r.Dst.IsZero() {
		t.Errorf("store row Dst = %v, want none", r.Dst)
	}
	if got, want := r.Reads(), []Reg{V(0), A(5), VL(), VS()}; !reflect.DeepEqual(got, want) {
		t.Errorf("store Reads() = %v, want %v", got, want)
	}
	if r.MemOp != 1 {
		t.Errorf("store MemOp = %d, want 1", r.MemOp)
	}
}

func TestVectorLoadReadsVLVS(t *testing.T) {
	in := Instr{Op: OpLd, Suffix: SufL, Ops: []Operand{MemOp("", 0, A(5)), RegOp(V(0))}}
	r := decode(t, in)
	if got, want := r.Reads(), []Reg{A(5), VL(), VS()}; !reflect.DeepEqual(got, want) {
		t.Errorf("vector load Reads() = %v, want %v", got, want)
	}
	if !r.Vector || !r.Mem || r.Pipe != PipeLoadStore || r.Class != ClassLoad || !r.Timed {
		t.Errorf("vector load row = %+v", r)
	}
}

func TestVectorWrite(t *testing.T) {
	in := Instr{Op: OpAdd, Suffix: SufD, Ops: []Operand{RegOp(V(1)), RegOp(V(0)), RegOp(V(3))}}
	r := decode(t, in)
	w, ok := r.VectorWrite()
	if !ok || w != 3 {
		t.Fatalf("VectorWrite() = %v,%v, want 3,true", w, ok)
	}
	if reads := r.VectorReads(); len(reads) != 2 {
		t.Fatalf("VectorReads() = %v, want two registers", reads)
	}
	// sum.d v0,s1 writes a scalar: no vector write.
	red := Instr{Op: OpSum, Suffix: SufD, Ops: []Operand{RegOp(V(0)), RegOp(S(1))}}
	if rr := decode(t, red); rr.Dst != S(1) {
		t.Errorf("reduction row Dst = %v, want s1", rr.Dst)
	} else if _, ok := rr.VectorWrite(); ok {
		t.Error("reduction writing a scalar should have no vector write")
	}
	if !red.IsVector() {
		t.Error("reduction reads v0 and must be a vector instruction")
	}
}

func TestTwoOperandALUReadsDestination(t *testing.T) {
	// add.w #1024,a5 computes a5 = a5 + 1024: a5 is read and written.
	r := decode(t, Instr{Op: OpAdd, Suffix: SufW, Ops: []Operand{ImmOp(1024), RegOp(A(5))}})
	if got, want := r.Reads(), []Reg{A(5)}; !reflect.DeepEqual(got, want) {
		t.Errorf("Reads() = %v, want %v", got, want)
	}
	// neg has a two-operand form that does not read its destination.
	r = decode(t, Instr{Op: OpNeg, Suffix: SufW, Ops: []Operand{RegOp(A(1)), RegOp(A(5))}})
	if got, want := r.Reads(), []Reg{A(1)}; !reflect.DeepEqual(got, want) {
		t.Errorf("neg Reads() = %v, want %v", got, want)
	}
	// The vector pipes have no two-operand form: they stream two sources
	// into a third register. Refused for its form alone, the instruction
	// still decodes to its row, and the destination read is not a source:
	// it chains on its explicit source only.
	vec := Instr{Op: OpAdd, Suffix: SufD, Ops: []Operand{RegOp(V(1)), RegOp(V(2))}}
	r, err := Decode(&vec)
	if err == nil || err.Error() != "vector add needs 3 operands, has 2" {
		t.Errorf("Decode(%s) error = %v, want the three-operand rule", vec, err)
	}
	if got, want := r.Reads(), []Reg{V(1), VL(), V(2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("vector two-operand Reads() = %v, want %v", got, want)
	}
	if got := r.VectorReads(); !reflect.DeepEqual(got, []uint8{1}) {
		t.Errorf("vector two-operand VectorReads() = %v, want [1]", got)
	}
}

func TestDecodeRejectsWhatARowCannotHold(t *testing.T) {
	// A vector load with extra register operands reads them all: five a
	// registers, its base, VL and VS are more than MaxReads.
	ops := []Operand{MemOp("x", 0, A(0))}
	for n := 1; n <= 5; n++ {
		ops = append(ops, RegOp(A(n)))
	}
	ops = append(ops, RegOp(V(0)))
	in := Instr{Op: OpLd, Suffix: SufL, Ops: ops}
	if _, err := Decode(&in); err == nil || !strings.Contains(err.Error(), "reads 8 registers") {
		t.Errorf("Decode(%s) error = %v, want a read-count error", in, err)
	}
	bad := Instr{Op: OpAdd, Suffix: SufD, Ops: []Operand{RegOp(V(1)), RegOp(V(9)), RegOp(V(3))}}
	if _, err := Decode(&bad); err == nil || err.Error() != "register v9 out of range" {
		t.Errorf("Decode(%s) error = %v, want register v9 out of range", bad, err)
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := OpNop; op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v, want %v,true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName(bogus) should fail")
	}
}

func TestSuffixByNameRoundTrip(t *testing.T) {
	for _, s := range []Suffix{SufL, SufW, SufD, SufS, SufT, SufF} {
		got, ok := SuffixByName(s.String())
		if !ok || got != s {
			t.Errorf("SuffixByName(%q) = %v,%v, want %v,true", s.String(), got, ok, s)
		}
	}
}

func TestTable1Timings(t *testing.T) {
	tests := []struct {
		op   Op
		want Timing
	}{
		{OpLd, Timing{2, 10, 1.00, 2}},
		{OpSt, Timing{2, 10, 1.00, 4}},
		{OpAdd, Timing{2, 10, 1.00, 1}},
		{OpMul, Timing{2, 12, 1.00, 1}},
		{OpSub, Timing{2, 10, 1.00, 1}},
		{OpDiv, Timing{2, 72, 4.00, 21}},
		{OpSum, Timing{2, 10, 1.35, 0}},
		{OpNeg, Timing{2, 10, 1.00, 1}},
	}
	for _, tt := range tests {
		got, ok := VectorTiming(tt.op)
		if !ok {
			t.Fatalf("VectorTiming(%v) missing", tt.op)
		}
		if got != tt.want {
			t.Errorf("VectorTiming(%v) = %+v, want %+v", tt.op, got, tt.want)
		}
	}
}

func TestVectorTimingMissingForControlOps(t *testing.T) {
	for _, op := range []Op{OpJmp, OpJbrs, OpLe, OpHalt, OpNop} {
		if _, ok := VectorTiming(op); ok {
			t.Errorf("VectorTiming(%v) should not exist", op)
		}
	}
}

func TestOpTimingPartition(t *testing.T) {
	// The opcode table: every opcode below numOps has a name and exactly
	// one of a Table 1 row or a scalar-only mark, and only opcodes with a
	// vector form name a pipe.
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		if info.name == "" {
			t.Errorf("opcode %d has no name", int(op))
		}
		_, hasTiming := VectorTiming(op)
		if hasTiming == ScalarOnly(op) {
			t.Errorf("%v: want exactly one of Table 1 timing or scalarOnly (timing=%v, scalarOnly=%v)",
				op, hasTiming, ScalarOnly(op))
		}
		if !hasTiming && op.Pipe() != PipeNone {
			t.Errorf("%v: scalar-only opcode on pipe %v", op, op.Pipe())
		}
	}
	if _, ok := VectorTiming(numOps); ok || ScalarOnly(-1) || numOps.String() != "op?" {
		t.Error("opcodes outside the table must have no row")
	}
}

func TestCPFToMFLOPS(t *testing.T) {
	// Paper Table 4: average MA CPF 1.080 -> 23.15 MFLOPS at 25 MHz.
	got := CPFToMFLOPS(1.080)
	if got < 23.1 || got > 23.2 {
		t.Errorf("CPFToMFLOPS(1.080) = %v, want about 23.15", got)
	}
	if CPFToMFLOPS(0) != 0 {
		t.Error("CPFToMFLOPS(0) should be 0")
	}
}

func TestPairPropertyQuick(t *testing.T) {
	// Property: pairing is symmetric and partitions v0..v7 into 4 pairs of 2.
	f := func(n uint8) bool {
		a := int(n % NumVRegs)
		b := (a + 4) % NumVRegs
		return V(a).Pair() == V(b).Pair() && V(a).Pair() >= 0 && V(a).Pair() < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrStringWithComment(t *testing.T) {
	in := Instr{Op: OpSub, Suffix: SufW, Ops: []Operand{ImmOp(128), RegOp(S(0))}, Comment: "#146"}
	if got, want := in.String(), "sub.w #128,s0 ; #146"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBranchClassification(t *testing.T) {
	jbrs := Instr{Op: OpJbrs, Suffix: SufT, Ops: []Operand{LabelOp("L7")}}
	jmp := Instr{Op: OpJmp, Ops: []Operand{LabelOp("L1")}}
	add := Instr{Op: OpAdd, Suffix: SufW, Ops: []Operand{ImmOp(1), RegOp(A(1))}}
	if !jbrs.IsBranch() || !jmp.IsBranch() {
		t.Error("jbrs/jmp should be branches")
	}
	if add.IsBranch() {
		t.Error("add should not be a branch")
	}
}
