package asm_test

import (
	"reflect"
	"strings"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/isa"
	"macs/internal/lfk"
)

// FuzzAsmParse asserts the assembly parser never panics on arbitrary
// input, and that parse→print→parse is a fixpoint: a parsed program's
// String() form parses back to a program with identical String(). Every
// parsed instruction must also decode (isa.Decode) to the row the
// per-instruction accessors it replaced would derive — also when Decode
// refuses its operand form, since the checker still reads that row — or
// be refused with no row because it reads more registers than a row
// holds or names a register no row can hold. Seeds are the compiled
// forms of the ten case-study kernels and two raw programs.
func FuzzAsmParse(f *testing.F) {
	for _, k := range lfk.All() {
		p, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			f.Fatalf("LFK%d does not compile: %v", k.ID, err)
		}
		f.Add(p.String())
	}
	f.Add("main:\n  mov 8,vs\n  mov 4,vl\n  ld.d d_X(a0),v0\n.data d_X 64\n")
	f.Add("main:\n  add.w #1,a1\n  add.d v1,v2\n  st.l v0,a1,a2,d_X(a3)\n  ld.l d_X(a0),a1,a2,a3,a4,a5,v0\n  jbrs.t a1,s2,L\nL:\n.data d_X 64\n")
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := asm.Parse(src)
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		c1 := p1.String()
		p2, err := asm.Parse(c1)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\ninput: %q\nprinted: %q", err, src, c1)
		}
		if c2 := p2.String(); c2 != c1 {
			t.Fatalf("String is not a fixpoint\ninput: %q\nfirst:  %q\nsecond: %q", src, c1, c2)
		}
		for i := range p1.Instrs {
			checkRow(t, &p1.Instrs[i])
		}
	})
}

// checkRow compares an instruction's decoded row with what the deleted
// per-instruction accessors (isa.Instr.Sources and VectorReads,
// depgraph.Reads; copied below) derive from it.
func checkRow(t *testing.T, in *isa.Instr) {
	t.Helper()
	srcs := sources(*in)
	reads := srcs
	if isTwoOpALU(*in) {
		if d, ok := in.Dst(); ok {
			reads = append(reads[:len(reads):len(reads)], d)
		}
	}
	r, err := isa.Decode(in)
	if err != nil && r.Instr == nil {
		if !badOperand(in) && (len(reads) <= isa.MaxReads || !strings.Contains(err.Error(), "registers")) {
			t.Fatalf("%s: Decode refused %d reads with no row: %v", in, len(reads), err)
		}
		return
	}
	if len(reads) > isa.MaxReads {
		t.Fatalf("%s: Decode accepted %d reads", in, len(reads))
	}
	if got := r.Reads(); !reflect.DeepEqual(got, reads) && (len(got) > 0 || len(reads) > 0) {
		t.Fatalf("%s: Reads() = %v, accessors read %v", in, got, reads)
	}
	var vReads []uint8
	var sReads uint8
	for _, reg := range srcs {
		switch reg.Class {
		case isa.ClassV:
			vReads = append(vReads, uint8(reg.N))
		case isa.ClassS:
			sReads |= 1 << reg.N
		}
	}
	if got := r.VectorReads(); !reflect.DeepEqual(got, vReads) && (len(got) > 0 || len(vReads) > 0) {
		t.Fatalf("%s: VectorReads() = %v, accessors read %v", in, got, vReads)
	}
	if got := r.ScalarReads(); got != sReads {
		t.Fatalf("%s: ScalarReads() = %08b, accessors read %08b", in, got, sReads)
	}
	dst, _ := in.Dst()
	timing, timed := isa.VectorTiming(in.Op)
	if r.Instr != in || r.Op != in.Op || r.Dst != dst || r.Vector != in.IsVector() ||
		r.Mem != in.IsMemory() || r.Pipe != in.Pipe() || r.Class != in.Class() ||
		r.Timed != timed || r.Timing != timing || r.MemOp != firstMemOp(*in) {
		t.Fatalf("%s: row %+v disagrees with the instruction's accessors", in, r)
	}
	w, ok := r.VectorWrite()
	if ok != (dst.Class == isa.ClassV) || (ok && w != dst.N) {
		t.Fatalf("%s: VectorWrite() = %d,%v with destination %v", in, w, ok, dst)
	}
}

// sources is the deleted isa.Instr.Sources: the registers an instruction
// reads, including memory bases and, for vector instructions, the
// implicit VL (and VS for memory access), in assembly order.
func sources(in isa.Instr) []isa.Reg {
	var srcs []isa.Reg
	n := len(in.Ops)
	for i, o := range in.Ops {
		switch o.Kind {
		case isa.KindReg:
			isDst := i == n-1
			switch in.Op {
			case isa.OpSt, isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe, isa.OpJbrs, isa.OpJmp:
				isDst = false
			}
			if !isDst {
				srcs = append(srcs, o.Reg)
			}
		case isa.KindMem:
			if !o.Base.IsZero() {
				srcs = append(srcs, o.Base)
			}
		}
	}
	if in.IsVector() && in.IsMemory() {
		srcs = append(srcs, isa.VL(), isa.VS())
	} else if in.IsVector() {
		srcs = append(srcs, isa.VL())
	}
	return srcs
}

// isTwoOpALU is the deleted depgraph helper behind depgraph.Reads: the
// two-operand ALU forms, which also read their destination.
func isTwoOpALU(in isa.Instr) bool {
	if len(in.Ops) != 2 || in.Op == isa.OpNeg {
		return false
	}
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpShf:
		return true
	}
	return false
}

// badOperand reports a register operand outside its file or a memory
// base that is not an a-register in its file: operands no row can hold.
func badOperand(in *isa.Instr) bool {
	for _, o := range in.Ops {
		switch {
		case o.Kind == isa.KindReg && isa.CheckReg(o.Reg) != nil:
			return true
		case o.Kind == isa.KindMem && !o.Base.IsZero() && (o.Base.Class != isa.ClassA || isa.CheckReg(o.Base) != nil):
			return true
		}
	}
	return false
}

func firstMemOp(in isa.Instr) int {
	for i, o := range in.Ops {
		if o.Kind == isa.KindMem {
			return i
		}
	}
	return -1
}
