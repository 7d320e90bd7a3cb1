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

	// Architectural state.
	a      [isa.NumARegs]int64
	s      [isa.NumSRegs]uint64
	v      [isa.NumVRegs][]float64
	vl     int
	vs     int64
	tf     bool
	pc     int
	halted bool

	// vscratch is the vector ALU staging buffer (results are computed here
	// before being copied to the destination register, so aliased operands
	// read consistent values without a per-instruction allocation).
	vscratch []float64
}

// New creates a CPU with the given configuration.
func New(cfg Config) *CPU {
	c := &CPU{
		Timing: NewTiming(cfg),
		mem:    mem.New(cfg.MemSize),
		vs:     isa.WordBytes,
		vl:     cfg.VLMax,
	}
	for i := range c.v {
		c.v[i] = make([]float64, cfg.VLMax)
	}
	c.vscratch = make([]float64, cfg.VLMax)
	return c
}

// Reset returns the CPU to its freshly-created state without reallocating
// its memory image, vector registers or chime builder, so a pooled
// simulator can run back-to-back programs with per-run cost proportional
// to what the previous run touched. The timing model resets as
// Timing.Reset describes: its stall table stays warm and any shared bank
// model is detached; re-attach with SetSharedBank if the next run
// co-simulates.
func (c *CPU) Reset() {
	c.Timing.Reset()
	c.mem.Reset()
	c.prog = nil
	c.a = [isa.NumARegs]int64{}
	c.s = [isa.NumSRegs]uint64{}
	for i := range c.v {
		clear(c.v[i])
	}
	c.vl = c.cfg.VLMax
	c.vs = isa.WordBytes
	c.tf = false
	c.pc = 0
	c.halted = false
}

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

// Load resolves the program's data symbols into memory and prepares
// execution at instruction 0 (or label "main" if present).
func (c *CPU) Load(p *asm.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.prog = p
	for _, d := range p.Data {
		addr, err := c.mem.Alloc(d.Name, d.Size)
		if err != nil {
			return err
		}
		for i, v := range d.Init {
			if err := c.mem.WriteF64(addr+int64(i*8), v); err != nil {
				return err
			}
		}
	}
	c.pc = 0
	if idx, ok := p.Labels["main"]; ok {
		c.pc = idx
	}
	return nil
}

// Step executes one instruction. It returns done=true when the program
// has halted or fallen off the end (finish accounting is applied then).
func (c *CPU) Step() (done bool, err error) {
	if c.prog == nil {
		return true, fmt.Errorf("vm: no program loaded")
	}
	if c.halted || c.pc < 0 || c.pc >= len(c.prog.Instrs) {
		c.Finish()
		return true, nil
	}
	in := c.prog.Instrs[c.pc]
	if err := c.Fetch(in, c.pc); err != nil {
		return true, err
	}
	var jumped bool
	if in.IsVector() {
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
		return true, fmt.Errorf("vm: pc=%d (%s): %w", c.pc, in, err)
	}
	if !jumped {
		c.pc++
	}
	if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
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

// effAddr computes a memory operand's effective address.
func (c *CPU) effAddr(o isa.Operand) (int64, error) {
	addr := o.Disp
	if o.Sym != "" {
		base, ok := c.mem.SymbolAddr(o.Sym)
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		addr += c.a[o.Base.N]
	}
	return addr, nil
}

// intVal reads an operand as an integer (for .w arithmetic, moves, VL/VS).
func (c *CPU) intVal(o isa.Operand) (int64, error) {
	switch o.Kind {
	case isa.KindImm:
		return o.Imm, nil
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassA:
			return c.a[o.Reg.N], nil
		case isa.ClassS:
			c.WaitScalar(o.Reg)
			return int64(c.s[o.Reg.N]), nil
		case isa.ClassVL:
			return int64(c.vl), nil
		case isa.ClassVS:
			return c.vs, nil
		}
	}
	return 0, fmt.Errorf("operand %s is not an integer source", o)
}

// floatVal reads an operand as a float (for .d arithmetic).
func (c *CPU) floatVal(o isa.Operand) (float64, error) {
	switch o.Kind {
	case isa.KindImm:
		return float64(o.Imm), nil
	case isa.KindReg:
		if o.Reg.Class == isa.ClassS {
			c.WaitScalar(o.Reg)
			return math.Float64frombits(c.s[o.Reg.N]), nil
		}
	}
	return 0, fmt.Errorf("operand %s is not a float source", o)
}

func (c *CPU) setIntReg(r isa.Reg, v int64) error {
	switch r.Class {
	case isa.ClassA:
		c.a[r.N] = v
	case isa.ClassS:
		c.s[r.N] = uint64(v)
	case isa.ClassVL:
		c.vl = int(max(0, min(v, int64(c.cfg.VLMax))))
	case isa.ClassVS:
		c.vs = v
	default:
		return fmt.Errorf("cannot write integer to %s", r)
	}
	return nil
}

func (c *CPU) setFloatReg(r isa.Reg, v float64) error {
	if r.Class != isa.ClassS {
		return fmt.Errorf("cannot write float to %s", r)
	}
	c.s[r.N] = math.Float64bits(v)
	return nil
}

// execScalar executes one ASU instruction, advancing the ASU clock by its
// latency. It returns jumped=true when control transferred.
func (c *CPU) execScalar(in isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpNop:
		c.ScalarOp()
		return false, nil
	case isa.OpMov:
		if len(in.Ops) != 2 {
			return false, fmt.Errorf("mov needs 2 operands")
		}
		c.ScalarOp()
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			c.WaitScalar(in.Ops[0].Reg)
			c.s[dst.N] = c.s[in.Ops[0].Reg.N]
			return false, nil
		}
		v, err := c.intVal(in.Ops[0])
		if err != nil {
			return false, err
		}
		return false, c.setIntReg(dst, v)
	case isa.OpLd:
		return false, c.scalarLoad(in)
	case isa.OpSt:
		return false, c.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, c.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return false, c.scalarCompare(in)
	case isa.OpJmp:
		c.ScalarOp()
		c.TakenBranch()
		return true, c.jumpTo(in)
	case isa.OpJbrs:
		c.ScalarOp()
		take := c.tf
		if in.Suffix == isa.SufF {
			take = !take
		}
		if !take {
			return false, nil
		}
		c.TakenBranch()
		return true, c.jumpTo(in)
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		return false, fmt.Errorf("%s has no scalar form in this subset", in.Op)
	}
	return false, fmt.Errorf("unimplemented scalar op %s", in.Op)
}

func (c *CPU) jumpTo(in isa.Instr) error {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			idx, ok := c.prog.Labels[o.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", o.Label)
			}
			c.pc = idx
			return nil
		}
	}
	return fmt.Errorf("branch without label")
}

func (c *CPU) scalarLoad(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar load needs 2 operands")
	}
	addr, err := c.effAddr(in.Ops[0])
	if err != nil {
		return err
	}
	dst := in.Ops[1].Reg
	c.ScalarLoad(dst)
	switch dst.Class {
	case isa.ClassA:
		v, err := c.mem.ReadI64(addr)
		if err != nil {
			return err
		}
		c.a[dst.N] = v
	case isa.ClassS:
		v, err := c.mem.ReadF64(addr)
		if err != nil {
			return err
		}
		c.s[dst.N] = math.Float64bits(v)
	default:
		return fmt.Errorf("bad scalar load destination %s", dst)
	}
	return nil
}

func (c *CPU) scalarStore(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar store needs 2 operands")
	}
	addr, err := c.effAddr(in.Ops[1])
	if err != nil {
		return err
	}
	c.ScalarStore()
	src := in.Ops[0].Reg
	switch src.Class {
	case isa.ClassA:
		return c.mem.WriteI64(addr, c.a[src.N])
	case isa.ClassS:
		c.WaitScalar(src)
		return c.mem.WriteF64(addr, math.Float64frombits(c.s[src.N]))
	}
	return fmt.Errorf("bad scalar store source %s", src)
}

func (c *CPU) scalarALU(in isa.Instr) error {
	c.ScalarOp()
	// Two-operand form: dst = dst OP src (e.g. add.w #1024,a5).
	// Three-operand form: dst = src1 OP src2.
	var dst isa.Reg
	switch len(in.Ops) {
	case 2:
		dst = in.Ops[1].Reg
	case 3:
		dst = in.Ops[2].Reg
	default:
		return fmt.Errorf("ALU op needs 2 or 3 operands")
	}
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		var x, y float64
		var err error
		if len(in.Ops) == 2 {
			if in.Op == isa.OpNeg {
				x, err = c.floatVal(in.Ops[0])
				if err != nil {
					return err
				}
				c.stats.ScalarFlops++
				return c.setFloatReg(dst, -x)
			}
			y, err = c.floatVal(isa.RegOp(dst))
			if err != nil {
				return err
			}
			x, err = c.floatVal(in.Ops[0])
			if err != nil {
				return err
			}
			x, y = y, x // dst OP src
		} else {
			x, err = c.floatVal(in.Ops[0])
			if err != nil {
				return err
			}
			y, err = c.floatVal(in.Ops[1])
			if err != nil {
				return err
			}
		}
		r, err := floatALU(in.Op, x, y)
		if err != nil {
			return err
		}
		c.stats.ScalarFlops++
		return c.setFloatReg(dst, r)
	}
	// Integer (.w / .l) arithmetic.
	var x, y int64
	var err error
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x, err = c.intVal(in.Ops[0])
			if err != nil {
				return err
			}
			return c.setIntReg(dst, -x)
		}
		x, err = c.intVal(isa.RegOp(dst))
		if err != nil {
			return err
		}
		y, err = c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
	} else {
		x, err = c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err = c.intVal(in.Ops[1])
		if err != nil {
			return err
		}
	}
	r, err := IntALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return c.setIntReg(dst, r)
}

func floatALU(op isa.Op, x, y float64) (float64, error) {
	switch op {
	case isa.OpAdd:
		return x + y, nil
	case isa.OpSub:
		return x - y, nil
	case isa.OpMul:
		return x * y, nil
	case isa.OpDiv:
		return x / y, nil
	}
	return 0, fmt.Errorf("no scalar float form for %s", op)
}

// IntALU applies an integer (.w/.l) ALU operation: the ASU's integer
// semantics, shared with interpreters that track integers symbolically.
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
	case isa.OpShf:
		if y >= 0 {
			return x << uint(y&63), nil
		}
		return x >> uint((-y)&63), nil
	}
	return 0, fmt.Errorf("no integer form for %s", op)
}

func (c *CPU) scalarCompare(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("compare needs 2 operands")
	}
	c.ScalarOp()
	var order int
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		x, err := c.floatVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.floatVal(in.Ops[1])
		if err != nil {
			return err
		}
		switch {
		case x < y:
			order = -1
		case x > y:
			order = 1
		}
	} else {
		x, err := c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.intVal(in.Ops[1])
		if err != nil {
			return err
		}
		order = cmp.Compare(x, y)
	}
	c.tf = Condition(in.Op, order)
	return nil
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
