package vm

import (
	"math"

	"macs/internal/isa"
)

// execVector times one vector instruction on the embedded Timing model
// and executes it functionally.
func (c *CPU) execVector(in *instr) error {
	vl := c.vl
	var ea int64
	if vl > 0 && in.Mem {
		ea = c.effAddr(in)
	}
	c.Vector(&in.Row, vl, ea, c.vs)
	if vl <= 0 {
		return nil
	}
	return c.execVectorFunc(in.Instr, vl, ea)
}

// vecOperand returns the first vl elements of a vector-op source: a
// vector register's own elements, or — for a scalar register or an
// immediate — buf filled with the broadcast value.
func (c *CPU) vecOperand(o *isa.Operand, vl int, buf []float64) []float64 {
	val := float64(o.Imm)
	if o.Kind == isa.KindReg {
		if o.Reg.Class == isa.ClassV {
			return c.v[o.Reg.N][:vl]
		}
		val = math.Float64frombits(c.s[o.Reg.N])
	}
	buf = buf[:vl]
	for k := range buf {
		buf[k] = val
	}
	return buf
}

// execVectorFunc performs the functional (value) semantics of a vector
// instruction over vl elements, in one of the forms Decode admits: only
// a stream's memory range can fail it. Every operation is elementwise,
// so a destination register that is also a source is updated in place.
func (c *CPU) execVectorFunc(in *isa.Instr, vl int, ea int64) error {
	ops := in.Ops
	dst := ops[len(ops)-1].Reg
	switch in.Op {
	case isa.OpLd:
		if err := c.mem.ReadStream(ea, c.vs, c.v[dst.N][:vl]); err != nil {
			return err
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSt:
		if err := c.mem.WriteStream(ea, c.vs, c.v[ops[0].Reg.N][:vl]); err != nil {
			return err
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSum:
		var acc float64
		for _, v := range c.v[ops[0].Reg.N][:vl] {
			acc += v
		}
		c.stats.VectorFlops += int64(vl)
		c.s[dst.N] = math.Float64bits(acc)
		return nil
	case isa.OpNeg, isa.OpMov, isa.OpSqrt:
		src := c.vecOperand(&ops[0], vl, c.bcast[0])
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
	}
	// add, sub, mul or div
	x := c.vecOperand(&ops[0], vl, c.bcast[0])
	y := c.vecOperand(&ops[1], vl, c.bcast[1])
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
