// Package codegen lowers Fortran-subset programs to Convex-style assembly.
// Innermost loops that the vectorizer accepts become strip-mined (VL=128)
// vector loops in the style of the paper's LFK1 listing; everything else
// becomes scalar ASU code.
//
// Register conventions:
//
//	s0        strip-loop remaining element count
//	s1..s6    floating point constants/broadcast scalars of the vector
//	          loop (overflow values are reloaded inside the loop, which
//	          splits chimes exactly as the paper observes for LFK8)
//	s5..s7    scalar-code floating point scratch (outside vector loops)
//	a0..a2    scalar-code integer/address scratch
//	a3..a7    vector stream base offsets, one per (stride, base) group
//	v0..v7    vector DAG values; reduction accumulators are reserved
//	          across the strip loop
//
// Options and the Compile entry point live here; the vector-loop emitter
// is in vector.go.
package codegen

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/ftn"
	"macs/internal/isa"
	"macs/internal/vectorize"
)

// Options tunes code generation; use DefaultOptions.
type Options struct {
	// VL is the strip length (hardware vector length).
	VL int
	// FPSlots is the number of s registers available for loop-resident
	// floating point scalars (s1..s1+FPSlots-1).
	FPSlots int
	// ForceScalar disables vectorization entirely (every loop compiles to
	// scalar code) — the baseline a vector machine is compared against.
	ForceScalar bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{VL: isa.VLMax, FPSlots: 6}
}

// Compile lowers a checked program to assembly.
func Compile(prog *ftn.Program, opts Options) (*asm.Program, error) {
	if opts.VL <= 0 || opts.VL > isa.VLMax {
		return nil, fmt.Errorf("codegen: bad VL %d", opts.VL)
	}
	g := &gen{
		prog:      prog,
		opts:      opts,
		out:       &asm.Program{},
		ftnLabels: make(map[int]string),
		interned:  make(map[string]string),
	}
	for _, d := range prog.Decls {
		g.out.AddData(asm.DataDef{Name: SymName(d.Name), Size: int64(d.Elems()) * 8, Kind: kindOf(d)})
	}
	// Pre-create assembly labels for Fortran statement labels.
	ftn.Walk(prog.Body, func(s ftn.Stmt) {
		if l := s.StmtLabel(); l != 0 {
			g.ftnLabels[l] = fmt.Sprintf("F%d", l)
		}
	})
	if err := g.emitBody(prog.Body); err != nil {
		return nil, err
	}
	g.emit(isa.Instr{Op: isa.OpHalt})
	if err := g.out.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: generated invalid assembly: %w", err)
	}
	return g.out, nil
}

// kindOf is the kind a declaration gives its data symbol.
func kindOf(d ftn.Decl) asm.Kind {
	switch {
	case d.Kind == ftn.KindInt && d.IsArray():
		return asm.IntArray
	case d.Kind == ftn.KindInt:
		return asm.IntScalar
	case d.IsArray():
		return asm.RealArray
	}
	return asm.RealScalar
}

// SymName maps a Fortran name to its assembly data symbol.
func SymName(name string) string { return "d_" + name }

type gen struct {
	prog      *ftn.Program
	opts      Options
	out       *asm.Program
	labelN    int
	ftnLabels map[int]string
	interned  map[string]string // value key -> symbol (float consts, temps)
	pending   []string          // labels to attach to the next instruction
}

func (g *gen) emit(in isa.Instr) {
	for _, l := range g.pending {
		g.out.SetLabel(l)
	}
	if len(g.pending) > 0 {
		in.Label = g.pending[0]
		g.pending = nil
	}
	g.out.Instrs = append(g.out.Instrs, in)
}

func (g *gen) placeLabel(name string) { g.pending = append(g.pending, name) }

func (g *gen) freshLabel(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s%d", prefix, g.labelN)
}

// floatConst interns a float constant in the data section.
func (g *gen) floatConst(v float64) string {
	key := fmt.Sprintf("f|%x", math.Float64bits(v))
	if s, ok := g.interned[key]; ok {
		return s
	}
	name := fmt.Sprintf("fc%d", len(g.interned))
	g.interned[key] = name
	g.out.AddData(asm.DataDef{Name: name, Size: 8, Init: []float64{v}})
	return name
}

// scratchSym interns a named scratch slot of the given size.
func (g *gen) scratchSym(tag string, size int64) string {
	key := "t|" + tag
	if s, ok := g.interned[key]; ok {
		return s
	}
	name := "tmp_" + tag
	g.interned[key] = name
	g.out.AddData(asm.DataDef{Name: name, Size: size})
	return name
}

// zerosSym interns the 128-element zero vector used to clear reduction
// accumulators (memory is zero-initialized).
func (g *gen) zerosSym() string {
	key := "z|"
	if s, ok := g.interned[key]; ok {
		return s
	}
	g.interned[key] = "zeros128"
	g.out.AddData(asm.DataDef{Name: "zeros128", Size: int64(isa.VLMax) * 8})
	return "zeros128"
}

// regPool hands out scratch registers and reports exhaustion.
type regPool struct {
	regs []isa.Reg
	used []bool
}

func newPool(regs ...isa.Reg) *regPool {
	return &regPool{regs: regs, used: make([]bool, len(regs))}
}

func (p *regPool) get() (isa.Reg, error) {
	for i, u := range p.used {
		if !u {
			p.used[i] = true
			return p.regs[i], nil
		}
	}
	return isa.Reg{}, fmt.Errorf("codegen: expression too deep for scratch registers")
}

func (p *regPool) put(r isa.Reg) {
	for i, reg := range p.regs {
		if reg == r {
			p.used[i] = false
			return
		}
	}
}

// emitBody lowers a statement list.
func (g *gen) emitBody(body []ftn.Stmt) error {
	for _, s := range body {
		if l := s.StmtLabel(); l != 0 {
			g.placeLabel(g.ftnLabels[l])
		}
		switch st := s.(type) {
		case *ftn.Assign:
			if err := g.emitScalarAssign(st); err != nil {
				return err
			}
		case *ftn.Continue:
			g.emit(isa.Instr{Op: isa.OpNop})
		case *ftn.Goto:
			g.emit(isa.Instr{Op: isa.OpJmp, Ops: []isa.Operand{isa.LabelOp(g.ftnLabels[st.Target])}})
		case *ftn.IfGoto:
			if err := g.emitIfGoto(st); err != nil {
				return err
			}
		case *ftn.DoStmt:
			if err := g.emitDo(st); err != nil {
				return err
			}
		default:
			return fmt.Errorf("codegen: unsupported statement %T", s)
		}
	}
	return nil
}

// emitDo lowers a DO loop: vectorized when innermost and analyzable,
// scalar otherwise.
func (g *gen) emitDo(do *ftn.DoStmt) error {
	if !g.opts.ForceScalar && isInnermost(do) {
		if res, err := vectorize.Vectorize(g.prog, do); err == nil {
			return g.emitVectorLoop(res)
		}
	}
	return g.emitScalarDo(do)
}

func isInnermost(do *ftn.DoStmt) bool {
	for _, s := range do.Body {
		if _, ok := s.(*ftn.DoStmt); ok {
			return false
		}
	}
	return true
}

// emitScalarDo lowers a DO loop entirely on the ASU.
func (g *gen) emitScalarDo(do *ftn.DoStmt) error {
	varSym := SymName(do.Var)
	top := g.freshLabel("LD")
	end := g.freshLabel("LE")
	ints := newPool(isa.A(0), isa.A(1), isa.A(2))
	r, err := g.evalInt(do.Lo, ints)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(r), isa.MemOp(varSym, 0, isa.NoReg())}})
	ints.put(r)
	g.placeLabel(top)
	// Exit test: var > hi (positive steps only).
	rv, err := g.evalInt(&ftn.Ref{Name: do.Var}, ints)
	if err != nil {
		return err
	}
	rh, err := g.evalInt(do.Hi, ints)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpGt, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(rv), isa.RegOp(rh)}})
	ints.put(rv)
	ints.put(rh)
	g.emit(isa.Instr{Op: isa.OpJbrs, Suffix: isa.SufT, Ops: []isa.Operand{isa.LabelOp(end)}})
	if err := g.emitBody(do.Body); err != nil {
		return err
	}
	// Increment.
	step := ftn.Expr(ftn.Num{Val: 1, IsInt: true})
	if do.Step != nil {
		step = do.Step
	}
	rv2, err := g.evalInt(&ftn.Ref{Name: do.Var}, ints)
	if err != nil {
		return err
	}
	rs, err := g.evalInt(step, ints)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpAdd, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(rv2), isa.RegOp(rs), isa.RegOp(rv2)}})
	g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(rv2), isa.MemOp(varSym, 0, isa.NoReg())}})
	ints.put(rv2)
	ints.put(rs)
	g.emit(isa.Instr{Op: isa.OpJmp, Ops: []isa.Operand{isa.LabelOp(top)}})
	g.placeLabel(end)
	g.emit(isa.Instr{Op: isa.OpNop})
	return nil
}

func (g *gen) emitIfGoto(st *ftn.IfGoto) error {
	lk, err := ftn.TypeOf(g.prog, st.Left)
	if err != nil {
		return err
	}
	rk, err := ftn.TypeOf(g.prog, st.Right)
	if err != nil {
		return err
	}
	var op isa.Op
	switch st.Rel {
	case "GT":
		op = isa.OpGt
	case "LT":
		op = isa.OpLt
	case "GE":
		op = isa.OpGe
	case "LE":
		op = isa.OpLe
	case "EQ":
		op = isa.OpEq
	case "NE":
		op = isa.OpNe
	default:
		return fmt.Errorf("codegen: unknown relation %s", st.Rel)
	}
	if lk == ftn.KindReal || rk == ftn.KindReal {
		fps := newPool(isa.S(1), isa.S(2), isa.S(3), isa.S(4), isa.S(5), isa.S(6), isa.S(7))
		ints := newPool(isa.A(0), isa.A(1), isa.A(2))
		l, err := g.evalFloat(st.Left, fps, ints)
		if err != nil {
			return err
		}
		r, err := g.evalFloat(st.Right, fps, ints)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: op, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(l), isa.RegOp(r)}})
	} else {
		ints := newPool(isa.A(0), isa.A(1), isa.A(2))
		l, err := g.evalInt(st.Left, ints)
		if err != nil {
			return err
		}
		r, err := g.evalInt(st.Right, ints)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: op, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(l), isa.RegOp(r)}})
	}
	g.emit(isa.Instr{Op: isa.OpJbrs, Suffix: isa.SufT, Ops: []isa.Operand{isa.LabelOp(g.ftnLabels[st.Target])}})
	return nil
}

// emitScalarAssign lowers an assignment outside any vector loop.
func (g *gen) emitScalarAssign(a *ftn.Assign) error {
	ints := newPool(isa.A(0), isa.A(1), isa.A(2))
	lk, err := ftn.TypeOf(g.prog, a.LHS)
	if err != nil {
		return err
	}
	if lk == ftn.KindInt {
		r, err := g.evalInt(a.RHS, ints)
		if err != nil {
			return err
		}
		mem, err := g.lhsAddr(a.LHS, ints)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(r), mem}})
		ints.put(r)
		return nil
	}
	fps := newPool(isa.S(1), isa.S(2), isa.S(3), isa.S(4), isa.S(5), isa.S(6), isa.S(7))
	r, err := g.evalFloat(a.RHS, fps, ints)
	if err != nil {
		return err
	}
	mem, err := g.lhsAddr(a.LHS, ints)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(r), mem}})
	fps.put(r)
	return nil
}

// lhsAddr builds the memory operand of an assignment target.
func (g *gen) lhsAddr(r *ftn.Ref, ints *regPool) (isa.Operand, error) {
	d, ok := g.prog.Decl(r.Name)
	if !ok {
		return isa.Operand{}, fmt.Errorf("codegen: undeclared %s", r.Name)
	}
	if len(r.Indices) == 0 {
		return isa.MemOp(SymName(r.Name), 0, isa.NoReg()), nil
	}
	reg, err := g.elementOffset(d, r.Indices, ints)
	if err != nil {
		return isa.Operand{}, err
	}
	return isa.MemOp(SymName(r.Name), 0, reg), nil
}

// elementOffset computes the byte offset of an array element into an
// address register (column-major, 1-based).
func (g *gen) elementOffset(d ftn.Decl, indices []ftn.Expr, ints *regPool) (isa.Reg, error) {
	acc, err := ints.get()
	if err != nil {
		return acc, err
	}
	g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.ImmOp(0), isa.RegOp(acc)}})
	mult := int64(1)
	for i, ix := range indices {
		r, err := g.evalInt(ix, ints)
		if err != nil {
			return acc, err
		}
		g.emit(isa.Instr{Op: isa.OpSub, Suffix: isa.SufW, Ops: []isa.Operand{isa.ImmOp(1), isa.RegOp(r)}})
		if mult != 1 {
			g.emit(isa.Instr{Op: isa.OpMul, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(r), isa.ImmOp(mult), isa.RegOp(r)}})
		}
		g.emit(isa.Instr{Op: isa.OpAdd, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(acc), isa.RegOp(r), isa.RegOp(acc)}})
		ints.put(r)
		mult *= int64(d.Dims[i])
	}
	g.emit(isa.Instr{Op: isa.OpMul, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(acc), isa.ImmOp(8), isa.RegOp(acc)}})
	return acc, nil
}

// evalInt evaluates an integer expression into an address register.
func (g *gen) evalInt(e ftn.Expr, ints *regPool) (isa.Reg, error) {
	switch x := e.(type) {
	case ftn.Num:
		if !x.IsInt {
			return isa.Reg{}, fmt.Errorf("codegen: real literal in integer context")
		}
		r, err := ints.get()
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.ImmOp(int64(x.Val)), isa.RegOp(r)}})
		return r, nil
	case ftn.Neg:
		r, err := g.evalInt(x.X, ints)
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpNeg, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(r), isa.RegOp(r)}})
		return r, nil
	case *ftn.Ref:
		if len(x.Indices) != 0 {
			return isa.Reg{}, fmt.Errorf("codegen: integer arrays are not supported")
		}
		r, err := ints.get()
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(SymName(x.Name), 0, isa.NoReg()), isa.RegOp(r)}})
		return r, nil
	case ftn.Bin:
		l, err := g.evalInt(x.L, ints)
		if err != nil {
			return l, err
		}
		r, err := g.evalInt(x.R, ints)
		if err != nil {
			return r, err
		}
		op, err := binOp(x.Op)
		if err != nil {
			return l, err
		}
		g.emit(isa.Instr{Op: op, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(l), isa.RegOp(r), isa.RegOp(l)}})
		ints.put(r)
		return l, nil
	}
	return isa.Reg{}, fmt.Errorf("codegen: unsupported integer expression %T", e)
}

// evalFloat evaluates a real expression into a scalar register.
func (g *gen) evalFloat(e ftn.Expr, fps, ints *regPool) (isa.Reg, error) {
	switch x := e.(type) {
	case ftn.Num:
		r, err := fps.get()
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(g.floatConst(x.Val), 0, isa.NoReg()), isa.RegOp(r)}})
		return r, nil
	case ftn.Neg:
		r, err := g.evalFloat(x.X, fps, ints)
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpNeg, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(r), isa.RegOp(r)}})
		return r, nil
	case *ftn.Ref:
		d, ok := g.prog.Decl(x.Name)
		if !ok {
			return isa.Reg{}, fmt.Errorf("codegen: undeclared %s", x.Name)
		}
		if d.Kind != ftn.KindReal {
			return isa.Reg{}, fmt.Errorf("codegen: integer %s in real scalar context", x.Name)
		}
		r, err := fps.get()
		if err != nil {
			return r, err
		}
		if len(x.Indices) == 0 {
			g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(SymName(x.Name), 0, isa.NoReg()), isa.RegOp(r)}})
			return r, nil
		}
		off, err := g.elementOffset(d, x.Indices, ints)
		if err != nil {
			return r, err
		}
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(SymName(x.Name), 0, off), isa.RegOp(r)}})
		ints.put(off)
		return r, nil
	case ftn.Bin:
		// Deeper subtree first (Sethi-Ullman) to bound register pressure.
		var l, r isa.Reg
		var err error
		if exprDepth(x.R) > exprDepth(x.L) {
			r, err = g.evalFloat(x.R, fps, ints)
			if err != nil {
				return r, err
			}
			l, err = g.evalFloat(x.L, fps, ints)
		} else {
			l, err = g.evalFloat(x.L, fps, ints)
			if err != nil {
				return l, err
			}
			r, err = g.evalFloat(x.R, fps, ints)
		}
		if err != nil {
			return l, err
		}
		op, err := binOp(x.Op)
		if err != nil {
			return l, err
		}
		g.emit(isa.Instr{Op: op, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(l), isa.RegOp(r), isa.RegOp(l)}})
		fps.put(r)
		return l, nil
	}
	return isa.Reg{}, fmt.Errorf("codegen: unsupported real expression %T", e)
}

// exprDepth is the height of an expression tree.
func exprDepth(e ftn.Expr) int {
	switch x := e.(type) {
	case ftn.Bin:
		l, r := exprDepth(x.L), exprDepth(x.R)
		if r > l {
			l = r
		}
		return l + 1
	case ftn.Neg:
		return exprDepth(x.X) + 1
	default:
		return 1
	}
}

func binOp(op byte) (isa.Op, error) {
	switch op {
	case '+':
		return isa.OpAdd, nil
	case '-':
		return isa.OpSub, nil
	case '*':
		return isa.OpMul, nil
	case '/':
		return isa.OpDiv, nil
	}
	return isa.OpNop, fmt.Errorf("codegen: unknown operator %c", op)
}
