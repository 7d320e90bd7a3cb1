package vm

import (
	"fmt"
	"math"

	"macs/internal/isa"
)

// execVector times one vector instruction on the embedded Timing model
// and executes it functionally.
func (c *CPU) execVector(in *instr) error {
	vl := c.vl
	var ea int64
	if vl > 0 && in.Mem {
		if in.MemOp < 0 {
			return fmt.Errorf("vector memory op without memory operand")
		}
		var err error
		if ea, err = c.effAddr(in); err != nil {
			return err
		}
	}
	if err := c.Vector(&in.Row, vl, ea, c.vs); err != nil {
		return err
	}
	if vl <= 0 {
		return nil
	}
	return c.execVectorFunc(in.Instr, vl, ea)
}

// vecOperand returns the first vl elements of a vector-op operand: a
// vector register's own elements, or — for a scalar register or an
// immediate — buf filled with the broadcast value.
func (c *CPU) vecOperand(o isa.Operand, vl int, buf []float64) ([]float64, error) {
	var val float64
	switch {
	case o.Kind == isa.KindReg && o.Reg.Class == isa.ClassV:
		return c.v[o.Reg.N][:vl], nil
	case o.Kind == isa.KindReg && o.Reg.Class == isa.ClassS:
		val = math.Float64frombits(c.s[o.Reg.N])
	case o.Kind == isa.KindImm:
		val = float64(o.Imm)
	default:
		return nil, fmt.Errorf("bad vector operand %s", o)
	}
	buf = buf[:vl]
	for k := range buf {
		buf[k] = val
	}
	return buf, nil
}

// execVectorFunc performs the functional (value) semantics of a vector
// instruction over vl elements. Every operation is elementwise, so a
// destination register that is also a source is updated in place.
func (c *CPU) execVectorFunc(in *isa.Instr, vl int, ea int64) error {
	switch in.Op {
	case isa.OpLd:
		dst := in.Ops[len(in.Ops)-1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector load into %s", dst)
		}
		if err := c.mem.ReadStream(ea, c.vs, c.v[dst.N][:vl]); err != nil {
			return err
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSt:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV {
			return fmt.Errorf("vector store from %s", src)
		}
		if err := c.mem.WriteStream(ea, c.vs, c.v[src.N][:vl]); err != nil {
			return err
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSum:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV || len(in.Ops) != 2 {
			return fmt.Errorf("sum needs v,s operands")
		}
		var acc float64
		for _, v := range c.v[src.N][:vl] {
			acc += v
		}
		c.stats.VectorFlops += int64(vl)
		return c.setFloatReg(in.Ops[1].Reg, acc)
	case isa.OpNeg, isa.OpMov, isa.OpSqrt:
		if len(in.Ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", in.Op)
		}
		src, err := c.vecOperand(in.Ops[0], vl, c.bcast[0])
		if err != nil {
			return err
		}
		dst := in.Ops[1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		out := c.v[dst.N][:vl]
		switch in.Op {
		case isa.OpNeg:
			for k, v := range src {
				out[k] = -v
			}
			c.stats.VectorFlops += int64(vl)
		case isa.OpMov:
			copy(out, src)
		case isa.OpSqrt:
			for k, v := range src {
				out[k] = math.Sqrt(v)
			}
			c.stats.VectorFlops += int64(vl)
		}
		return nil
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv:
		if len(in.Ops) != 3 {
			return fmt.Errorf("%s needs 3 operands", in.Op)
		}
		x, err := c.vecOperand(in.Ops[0], vl, c.bcast[0])
		if err != nil {
			return err
		}
		y, err := c.vecOperand(in.Ops[1], vl, c.bcast[1])
		if err != nil {
			return err
		}
		dst := in.Ops[2].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		out, y := c.v[dst.N][:vl], y[:len(x)]
		switch in.Op {
		case isa.OpAdd:
			for k := range x {
				out[k] = x[k] + y[k]
			}
		case isa.OpSub:
			for k := range x {
				out[k] = x[k] - y[k]
			}
		case isa.OpMul:
			for k := range x {
				out[k] = x[k] * y[k]
			}
		case isa.OpDiv:
			for k := range x {
				out[k] = x[k] / y[k]
			}
		}
		c.stats.VectorFlops += int64(vl)
		return nil
	}
	return fmt.Errorf("unimplemented vector op %s", in.Op)
}
