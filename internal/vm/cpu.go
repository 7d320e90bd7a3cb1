package vm

import (
	"cmp"
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/isa"
	"macs/internal/mem"
)

// CPU is one simulated C-240 processor: the architectural state and the
// functional semantics of every instruction, driving the embedded Timing
// model that charges its cycles. Create with New, load a program with
// Load, execute with Run.
type CPU struct {
	Timing
	mem  *mem.Memory
	prog *asm.Program
	// code is the loaded program, one decoded instruction per Instrs
	// entry.
	code []instr

	// Architectural state.
	a      [isa.NumARegs]int64
	s      [isa.NumSRegs]uint64
	v      [isa.NumVRegs][]float64
	vl     int
	vs     int64
	tf     bool
	pc     int
	halted bool

	// bcast holds the two broadcast operands of a vector ALU instruction
	// (a scalar register or an immediate repeated VL times).
	bcast [2][]float64
}

// instr is one loaded instruction: its decoded row plus what Load
// resolved against the program's labels and the CPU's memory layout.
type instr struct {
	isa.Row
	// disp is the memory operand's displacement plus its symbol's base
	// address; the a register numbered base (-1 for none) is added at
	// run time.
	disp int64
	base int
	// target is a branch's label index.
	target int
}

// New creates a CPU with the given configuration. A CPU runs one
// program: build a fresh one per run. Its memory allocates pages as the
// program writes them, so a CPU costs what its program touches.
func New(cfg Config) *CPU {
	c := &CPU{
		Timing: NewTiming(cfg),
		mem:    mem.New(cfg.MemSize),
		vs:     isa.WordBytes,
		vl:     cfg.VLMax,
	}
	// One backing array for the vector registers and the broadcast
	// buffers.
	regs := make([]float64, (len(c.v)+len(c.bcast))*cfg.VLMax)
	for i := range c.v {
		c.v[i] = regs[i*cfg.VLMax : (i+1)*cfg.VLMax : (i+1)*cfg.VLMax]
	}
	for i := range c.bcast {
		k := len(c.v) + i
		c.bcast[i] = regs[k*cfg.VLMax : (k+1)*cfg.VLMax : (k+1)*cfg.VLMax]
	}
	return c
}

// Program returns the loaded program (nil before Load).
func (c *CPU) Program() *asm.Program { return c.prog }

// Memory returns the CPU's functional memory (for priming inputs and
// reading results in tests and harnesses).
func (c *CPU) Memory() *mem.Memory { return c.mem }

// SetS primes a scalar register with a float value; SetA primes an address
// register; SetSInt primes a scalar register with an integer.
func (c *CPU) SetS(n int, v float64)  { c.s[n] = math.Float64bits(v) }
func (c *CPU) SetSInt(n int, v int64) { c.s[n] = uint64(v) }
func (c *CPU) SetA(n int, v int64)    { c.a[n] = v }

// SFloat and AVal read registers after a run.
func (c *CPU) SFloat(n int) float64 { return math.Float64frombits(c.s[n]) }
func (c *CPU) SInt(n int) int64     { return int64(c.s[n]) }
func (c *CPU) AVal(n int) int64     { return c.a[n] }

// VElem reads one vector register element.
func (c *CPU) VElem(n, k int) float64 { return c.v[n][k] }

// SetV primes a vector register with values (for calibration loops and
// tests); remaining elements are zeroed.
func (c *CPU) SetV(n int, vals []float64) {
	for k := range c.v[n] {
		if k < len(vals) {
			c.v[n][k] = vals[k]
		} else {
			c.v[n][k] = 0
		}
	}
}

// Load resolves the program's data symbols into memory, decodes its
// instructions once (isa.Decode) with their memory operands and branch
// targets resolved, and prepares execution at instruction 0 (or label
// "main" if present). An instruction Decode refuses fails the load, so
// a loaded program never meets an operand its instruction cannot take.
func (c *CPU) Load(p *asm.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, d := range p.Data {
		addr, err := c.mem.Alloc(d.Name, d.Size)
		if err != nil {
			return err
		}
		if err := c.mem.WriteStream(addr, isa.WordBytes, d.Init); err != nil {
			return err
		}
	}
	code := make([]instr, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		row, err := isa.Decode(in)
		if err != nil {
			return fmt.Errorf("vm: instr %d (%s): %w", i, in, err)
		}
		code[i] = instr{Row: row, base: -1}
		c.resolve(&code[i], p)
	}
	c.prog, c.code = p, code
	c.pc = 0
	if idx, ok := p.Labels["main"]; ok {
		c.pc = idx
	}
	return nil
}

// resolve fixes what an instruction's execution would otherwise look up
// each time: its memory operand's address — Validate found its symbol,
// which Load placed — and a branch's target, a label Validate found.
func (c *CPU) resolve(in *instr, p *asm.Program) {
	if in.Mem {
		o := in.Instr.Ops[in.MemOp]
		in.disp = o.Disp
		if o.Sym != "" {
			base, _ := c.mem.SymbolAddr(o.Sym)
			in.disp += base
		}
		if o.Base.Class == isa.ClassA {
			in.base = o.Base.N
		}
	}
	if in.Instr.IsBranch() {
		in.target = p.Labels[in.Instr.Ops[0].Label]
	}
}

// Step executes one instruction. It returns done=true when the program
// has halted or fallen off the end (finish accounting is applied then).
func (c *CPU) Step() (done bool, err error) {
	if c.prog == nil {
		return true, fmt.Errorf("vm: no program loaded")
	}
	if c.halted || c.pc < 0 || c.pc >= len(c.code) {
		c.Finish()
		return true, nil
	}
	in := &c.code[c.pc]
	if err := c.Fetch(&in.Row, c.pc); err != nil {
		return true, err
	}
	var jumped bool
	if in.Vector {
		err = c.execVector(in)
	} else {
		if in.Op == isa.OpHalt {
			c.halted = true
			c.Finish()
			return true, nil
		}
		jumped, err = c.execScalar(in)
	}
	if err != nil {
		return true, fmt.Errorf("vm: pc=%d (%s): %w", c.pc, in.Instr, err)
	}
	if !jumped {
		c.pc++
	}
	if c.pc < 0 || c.pc >= len(c.code) {
		c.halted = true
		c.Finish()
		return true, nil
	}
	return false, nil
}

// Run executes the loaded program until it halts or falls off the end and
// returns the run statistics.
func (c *CPU) Run() (Stats, error) {
	for {
		done, err := c.Step()
		if err != nil {
			return c.stats, err
		}
		if done {
			return c.stats, nil
		}
	}
}

// effAddr computes an instruction's effective address from its resolved
// memory operand.
func (c *CPU) effAddr(in *instr) int64 {
	if in.base >= 0 {
		return in.disp + c.a[in.base]
	}
	return in.disp
}

// intVal reads a source Decode admits as an integer: an immediate or an
// a, s, vl or vs register.
func (c *CPU) intVal(o *isa.Operand) int64 {
	if o.Kind == isa.KindImm {
		return o.Imm
	}
	switch o.Reg.Class {
	case isa.ClassA:
		return c.a[o.Reg.N]
	case isa.ClassS:
		c.WaitScalar(o.Reg)
		return int64(c.s[o.Reg.N])
	case isa.ClassVL:
		return int64(c.vl)
	}
	return c.vs
}

// floatVal reads a source Decode admits as a float: an immediate or an s
// register.
func (c *CPU) floatVal(o *isa.Operand) float64 {
	if o.Kind == isa.KindImm {
		return float64(o.Imm)
	}
	c.WaitScalar(o.Reg)
	return math.Float64frombits(c.s[o.Reg.N])
}

// setIntReg writes an integer to an a, s, vl or vs register.
func (c *CPU) setIntReg(r isa.Reg, v int64) {
	switch r.Class {
	case isa.ClassA:
		c.a[r.N] = v
	case isa.ClassS:
		c.s[r.N] = uint64(v)
	case isa.ClassVL:
		c.vl = int(max(0, min(v, int64(c.cfg.VLMax))))
	default:
		c.vs = v
	}
}

// execScalar executes one ASU instruction, advancing the ASU clock by its
// latency. It returns jumped=true when control transferred. Decode
// admitted its form, so only its data can fail it.
func (c *CPU) execScalar(in *instr) (jumped bool, err error) {
	ops := in.Instr.Ops
	switch in.Op {
	case isa.OpMov:
		c.ScalarOp()
		dst := ops[1].Reg
		if in.Instr.Suffix == isa.SufD && dst.Class == isa.ClassS && ops[0].Kind == isa.KindReg && ops[0].Reg.Class == isa.ClassS {
			c.WaitScalar(ops[0].Reg)
			c.s[dst.N] = c.s[ops[0].Reg.N]
			return false, nil
		}
		c.setIntReg(dst, c.intVal(&ops[0]))
		return false, nil
	case isa.OpLd:
		return false, c.scalarLoad(in)
	case isa.OpSt:
		return false, c.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, c.scalarALU(in.Instr)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		c.scalarCompare(in.Instr)
		return false, nil
	case isa.OpJmp, isa.OpJbrs:
		c.ScalarOp()
		if in.Op == isa.OpJbrs && c.tf == (in.Instr.Suffix == isa.SufF) {
			return false, nil // jbrs.t on a clear T flag, jbrs.f on a set one
		}
		c.TakenBranch()
		c.pc = in.target
		return true, nil
	}
	c.ScalarOp() // nop: Decode admits no other scalar opcode here
	return false, nil
}

func (c *CPU) scalarLoad(in *instr) error {
	addr := c.effAddr(in)
	dst := in.Dst
	c.ScalarLoad(dst)
	if dst.Class == isa.ClassA {
		v, err := c.mem.ReadI64(addr)
		if err != nil {
			return err
		}
		c.a[dst.N] = v
		return nil
	}
	v, err := c.mem.ReadF64(addr)
	if err != nil {
		return err
	}
	c.s[dst.N] = math.Float64bits(v)
	return nil
}

func (c *CPU) scalarStore(in *instr) error {
	addr := c.effAddr(in)
	c.ScalarStore()
	src := in.Instr.Ops[0].Reg
	if src.Class == isa.ClassA {
		return c.mem.WriteI64(addr, c.a[src.N])
	}
	c.WaitScalar(src)
	return c.mem.WriteF64(addr, math.Float64frombits(c.s[src.N]))
}

// scalarALU executes dst = src1 OP src2, or the two-operand dst = dst OP
// src (e.g. add.w #1024,a5) and dst = -src.
func (c *CPU) scalarALU(in *isa.Instr) error {
	c.ScalarOp()
	ops := in.Ops
	dst := ops[len(ops)-1].Reg
	// x OP y, read in that order: the two-operand form reads its
	// destination first; neg reads only x.
	x, y := &ops[0], &ops[len(ops)-1]
	switch {
	case len(ops) == 3:
		y = &ops[1]
	case in.Op != isa.OpNeg:
		x, y = y, x
	}
	if in.IsFloat() {
		var r float64
		if in.Op == isa.OpNeg {
			r = -c.floatVal(x)
		} else {
			r = floatALU(in.Op, c.floatVal(x), c.floatVal(y))
		}
		c.stats.ScalarFlops++
		c.s[dst.N] = math.Float64bits(r)
		return nil
	}
	if in.Op == isa.OpNeg {
		c.setIntReg(dst, -c.intVal(x))
		return nil
	}
	r, err := IntALU(in.Op, c.intVal(x), c.intVal(y))
	if err != nil {
		return err
	}
	c.setIntReg(dst, r)
	return nil
}

// floatALU applies a floating-point add, sub, mul or div, the ASU's
// float forms Decode admits.
func floatALU(op isa.Op, x, y float64) float64 {
	switch op {
	case isa.OpAdd:
		return x + y
	case isa.OpSub:
		return x - y
	case isa.OpMul:
		return x * y
	}
	return x / y
}

// IntALU applies an integer (.w/.l) add, sub, mul, div, and, or or shf:
// the ASU's integer semantics, shared with interpreters that track
// integers symbolically. Dividing by zero is its one error.
func IntALU(op isa.Op, x, y int64) (int64, error) {
	switch op {
	case isa.OpAdd:
		return x + y, nil
	case isa.OpSub:
		return x - y, nil
	case isa.OpMul:
		return x * y, nil
	case isa.OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return x / y, nil
	case isa.OpAnd:
		return x & y, nil
	case isa.OpOr:
		return x | y, nil
	}
	if y >= 0 { // shf
		return x << uint(y&63), nil
	}
	return x >> uint((-y)&63), nil
}

func (c *CPU) scalarCompare(in *isa.Instr) {
	c.ScalarOp()
	var order int
	if in.IsFloat() {
		x, y := c.floatVal(&in.Ops[0]), c.floatVal(&in.Ops[1])
		switch {
		case x < y:
			order = -1
		case x > y:
			order = 1
		}
	} else {
		order = cmp.Compare(c.intVal(&in.Ops[0]), c.intVal(&in.Ops[1]))
	}
	c.tf = Condition(in.Op, order)
}

// Condition is the T flag a compare op sets, given the three-way
// comparison cmp (-1, 0 or +1) of its operands.
func Condition(op isa.Op, cmp int) bool {
	switch op {
	case isa.OpLe:
		return cmp <= 0
	case isa.OpLt:
		return cmp < 0
	case isa.OpGt:
		return cmp > 0
	case isa.OpGe:
		return cmp >= 0
	case isa.OpEq:
		return cmp == 0
	case isa.OpNe:
		return cmp != 0
	}
	return false
}
