package vm

import (
	"fmt"
	"math"

	"macs/internal/isa"
)

// execVector times one vector instruction on the embedded Timing model
// and executes it functionally.
func (c *CPU) execVector(in isa.Instr) error {
	vl := c.vl
	var ea int64
	if vl > 0 && in.IsMemory() {
		var err error
		if ea, err = c.vectorEA(in); err != nil {
			return err
		}
	}
	if err := c.Vector(in, vl, ea, c.vs); err != nil {
		return err
	}
	if vl <= 0 {
		return nil
	}
	return c.execVectorFunc(in, vl, ea)
}

// vectorEA resolves the memory operand of a vector load or store.
func (c *CPU) vectorEA(in isa.Instr) (int64, error) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			return c.effAddr(o)
		}
	}
	return 0, fmt.Errorf("vector memory op without memory operand")
}

// vecOperand returns an element accessor for a vector-op operand:
// vector registers index per element, scalar registers and immediates
// broadcast.
func (c *CPU) vecOperand(o isa.Operand) (func(k int) float64, error) {
	switch o.Kind {
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassV:
			vec := c.v[o.Reg.N]
			return func(k int) float64 { return vec[k] }, nil
		case isa.ClassS:
			val := math.Float64frombits(c.s[o.Reg.N])
			return func(int) float64 { return val }, nil
		}
	case isa.KindImm:
		val := float64(o.Imm)
		return func(int) float64 { return val }, nil
	}
	return nil, fmt.Errorf("bad vector operand %s", o)
}

// execVectorFunc performs the functional (value) semantics of a vector
// instruction over vl elements.
func (c *CPU) execVectorFunc(in isa.Instr, vl int, ea int64) error {
	switch in.Op {
	case isa.OpLd:
		dst := in.Ops[len(in.Ops)-1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector load into %s", dst)
		}
		for k := 0; k < vl; k++ {
			v, err := c.mem.ReadF64(ea + int64(k)*c.vs)
			if err != nil {
				return err
			}
			c.v[dst.N][k] = v
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSt:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV {
			return fmt.Errorf("vector store from %s", src)
		}
		for k := 0; k < vl; k++ {
			if err := c.mem.WriteF64(ea+int64(k)*c.vs, c.v[src.N][k]); err != nil {
				return err
			}
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSum:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV || len(in.Ops) != 2 {
			return fmt.Errorf("sum needs v,s operands")
		}
		var acc float64
		for k := 0; k < vl; k++ {
			acc += c.v[src.N][k]
		}
		c.stats.VectorFlops += int64(vl)
		return c.setFloatReg(in.Ops[1].Reg, acc)
	case isa.OpNeg, isa.OpMov:
		if len(in.Ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", in.Op)
		}
		src, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		dst := in.Ops[1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		for k := 0; k < vl; k++ {
			v := src(k)
			if in.Op == isa.OpNeg {
				v = -v
			}
			c.v[dst.N][k] = v
		}
		if in.Op == isa.OpNeg {
			c.stats.VectorFlops += int64(vl)
		}
		return nil
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv:
		if len(in.Ops) != 3 {
			return fmt.Errorf("%s needs 3 operands", in.Op)
		}
		x, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.vecOperand(in.Ops[1])
		if err != nil {
			return err
		}
		dst := in.Ops[2].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		out := c.vscratch[:vl]
		for k := 0; k < vl; k++ {
			a, b := x(k), y(k)
			switch in.Op {
			case isa.OpAdd:
				out[k] = a + b
			case isa.OpSub:
				out[k] = a - b
			case isa.OpMul:
				out[k] = a * b
			case isa.OpDiv:
				out[k] = a / b
			}
		}
		copy(c.v[dst.N], out)
		c.stats.VectorFlops += int64(vl)
		return nil
	case isa.OpSqrt:
		if len(in.Ops) != 2 {
			return fmt.Errorf("sqrt needs 2 operands")
		}
		src, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		dst := in.Ops[1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector sqrt into %s", dst)
		}
		for k := 0; k < vl; k++ {
			c.v[dst.N][k] = math.Sqrt(src(k))
		}
		c.stats.VectorFlops += int64(vl)
		return nil
	}
	return fmt.Errorf("unimplemented vector op %s", in.Op)
}
