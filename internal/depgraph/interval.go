package depgraph

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/isa"
)

// Interval is one value range over int64, possibly unbounded on either
// side. The zero value is the unconstrained interval (top).
type Interval struct {
	Lo, Hi int64
	// LoBnd and HiBnd report whether the corresponding bound holds; an
	// unbounded side's numeric field is meaningless.
	LoBnd, HiBnd bool
}

// Top returns the unconstrained interval.
func Top() Interval { return Interval{} }

// Point returns the singleton interval [v, v].
func Point(v int64) Interval { return Interval{Lo: v, Hi: v, LoBnd: true, HiBnd: true} }

// Range returns the interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi, LoBnd: true, HiBnd: true} }

// AtLeast returns [lo, +inf); AtMost returns (-inf, hi].
func AtLeast(lo int64) Interval { return Interval{Lo: lo, LoBnd: true} }
func AtMost(hi int64) Interval  { return Interval{Hi: hi, HiBnd: true} }

// IsPoint reports whether the interval is a single value.
func (iv Interval) IsPoint() (int64, bool) {
	if iv.LoBnd && iv.HiBnd && iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// Bounded reports whether both sides are finite.
func (iv Interval) Bounded() bool { return iv.LoBnd && iv.HiBnd }

// Empty reports an infeasible interval (refinement produced lo > hi).
func (iv Interval) Empty() bool { return iv.LoBnd && iv.HiBnd && iv.Lo > iv.Hi }

func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.LoBnd {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.HiBnd {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	if p, ok := iv.IsPoint(); ok {
		return fmt.Sprintf("%d", p)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// addSat adds with saturation detection; ok is false on overflow.
func addSat(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	var out Interval
	if iv.LoBnd && o.LoBnd {
		if v, ok := addSat(iv.Lo, o.Lo); ok {
			out.Lo, out.LoBnd = v, true
		}
	}
	if iv.HiBnd && o.HiBnd {
		if v, ok := addSat(iv.Hi, o.Hi); ok {
			out.Hi, out.HiBnd = v, true
		}
	}
	return out
}

// Neg returns the negated interval.
func (iv Interval) Neg() Interval {
	var out Interval
	if iv.HiBnd && iv.Hi != math.MinInt64 {
		out.Lo, out.LoBnd = -iv.Hi, true
	}
	if iv.LoBnd && iv.Lo != math.MinInt64 {
		out.Hi, out.HiBnd = -iv.Lo, true
	}
	return out
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval { return iv.Add(o.Neg()) }

// Mul returns the interval product; unbounded unless both operands are
// bounded and no corner product overflows.
func (iv Interval) Mul(o Interval) Interval {
	if !iv.Bounded() || !o.Bounded() {
		return Top()
	}
	mul := func(a, b int64) (int64, bool) {
		if a == 0 || b == 0 {
			return 0, true
		}
		p := a * b
		if p/b != a {
			return 0, false
		}
		return p, true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, a := range []int64{iv.Lo, iv.Hi} {
		for _, b := range []int64{o.Lo, o.Hi} {
			p, ok := mul(a, b)
			if !ok {
				return Top()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Range(lo, hi)
}

// Join returns the least interval containing both.
func (iv Interval) Join(o Interval) Interval {
	var out Interval
	if iv.LoBnd && o.LoBnd {
		out.LoBnd = true
		out.Lo = min64(iv.Lo, o.Lo)
	}
	if iv.HiBnd && o.HiBnd {
		out.HiBnd = true
		out.Hi = max64(iv.Hi, o.Hi)
	}
	return out
}

// Meet intersects two intervals; the result may be Empty.
func (iv Interval) Meet(o Interval) Interval {
	out := iv
	if o.LoBnd && (!out.LoBnd || o.Lo > out.Lo) {
		out.Lo, out.LoBnd = o.Lo, true
	}
	if o.HiBnd && (!out.HiBnd || o.Hi < out.Hi) {
		out.Hi, out.HiBnd = o.Hi, true
	}
	return out
}

// Widen drops any bound that moved since prev, guaranteeing termination
// of the fixpoint iteration.
func (iv Interval) Widen(prev Interval) Interval {
	out := iv
	if prev.LoBnd && iv.LoBnd && iv.Lo < prev.Lo {
		out.LoBnd = false
	}
	if !prev.LoBnd {
		out.LoBnd = false
	}
	if prev.HiBnd && iv.HiBnd && iv.Hi > prev.Hi {
		out.HiBnd = false
	}
	if !prev.HiBnd {
		out.HiBnd = false
	}
	return out
}

// Clamp intersects with [lo, hi] after the machine's clamp semantics
// (values below lo map to lo, above hi to hi), so the result is always
// bounded.
func (iv Interval) Clamp(lo, hi int64) Interval {
	l, h := lo, hi
	if iv.LoBnd {
		l = clamp64(iv.Lo, lo, hi)
	}
	if iv.HiBnd {
		h = clamp64(iv.Hi, lo, hi)
	}
	return Range(l, h)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Env is the abstract state at one program point: one interval per
// register slot below gSlotV (a, s, vl, vs, and the T flag as 0, 1 or
// [0,1]; vector registers carry none) and a must-defined bit per slot, v
// registers and T included.
type Env struct {
	regs [gSlotV]Interval
	def  uint32 // bit s: slot s is assigned on every path from the entry
	live bool
}

// Reg returns the interval of one register (top for vector registers).
func (e *Env) Reg(r isa.Reg) Interval {
	s := gSlot(r)
	if s < 0 || s >= gSlotV {
		return Top()
	}
	return e.regs[s]
}

// Defined reports whether every path from the entry to this point
// assigns r. Registers outside the slot map (out-of-range numbers) count
// as defined: they have no state to be missing.
func (e *Env) Defined(r isa.Reg) bool {
	s := gSlot(r)
	return s < 0 || e.def&(1<<s) != 0
}

// Live reports whether some feasible path from the entry reaches this
// point.
func (e *Env) Live() bool { return e.live }

// join merges src into e (intervals by Join, or by Join then Widen
// against e's old bounds; must-defined bits by AND); changed reports
// growth.
func (e *Env) join(src *Env, widen bool) (changed bool) {
	if !src.live {
		return false
	}
	if !e.live {
		*e = *src
		return true
	}
	if d := e.def & src.def; d != e.def {
		e.def, changed = d, true
	}
	for i := range e.regs {
		n := e.regs[i].Join(src.regs[i])
		if widen {
			n = n.Widen(e.regs[i])
		}
		if n != e.regs[i] {
			e.regs[i], changed = n, true
		}
	}
	return changed
}

// IntervalResult carries the converged per-instruction entry states.
type IntervalResult struct {
	// Pre[i] is the abstract state before instruction i; Pre[i].Live()
	// is false for statically unreachable instructions.
	Pre []Env
	// Blocks is the control flow graph the fixpoint ran on.
	Blocks []Block
}

// Reg returns the interval of a register before instruction idx.
func (r *IntervalResult) Reg(idx int, reg isa.Reg) Interval {
	if r == nil || idx < 0 || idx >= len(r.Pre) || !r.Pre[idx].live {
		return Top()
	}
	return r.Pre[idx].Reg(reg)
}

// widenAfter is the number of times a block's entry state may grow by
// plain join before widening kicks in; narrowRounds re-applies the
// transfer that many times afterwards to recover widened-away bounds.
const (
	widenAfter   = 3
	narrowRounds = 3
)

// cmpFact remembers the last scalar integer compare of a block so the
// branch that consumes it can refine operand ranges on its out-edges.
// The T flag's value itself lives in the Env and crosses blocks.
type cmpFact struct {
	valid bool
	op    isa.Op
	// slot/rhs describe "slot OP rhs" with rhs a known interval; when
	// the register was the right operand the op has been flipped.
	slot int
	rhs  Interval
}

// Intervals runs the interval abstract interpretation over a whole
// program: a forward fixpoint on its CFG with widening, constants and
// integer ALU folded to ranges, VL writes clamped to [0, VLMax] like the
// machine, and compare-plus-branch pairs refining ranges on both edges.
// Registers start unknown and undefined, so no answer rests on the
// machine's zeroed register file. Loads and floating-point results are
// unconstrained.
//
// rows[i] is p.Instrs[i] decoded (isa.Decode), the zero Row where Decode
// refuses it (Rows): the fixpoint folds only forms the simulator runs,
// and an instruction it would not run leaves its destination unknown.
func Intervals(p *asm.Program, rows []isa.Row) *IntervalResult {
	res := &IntervalResult{Pre: make([]Env, len(p.Instrs))}
	if len(p.Instrs) == 0 {
		return res
	}
	blocks, entry := buildBlocks(p)
	res.Blocks = blocks
	in := make([]Env, len(blocks))
	joins := make([]int, len(blocks))
	e0 := Env{live: true}
	in[entry] = e0

	flow := func(bi int, record bool) (outs []Env, targets []int) {
		st := in[bi]
		var cmp cmpFact
		b := blocks[bi]
		for i := b.Start; i < b.End; i++ {
			if record {
				res.Pre[i] = st
			}
			stepInterval(&st, &p.Instrs[i], &rows[i], &cmp)
		}
		last := p.Instrs[b.End-1]
		// A conditional branch with both sides inside the program sends
		// each side only the states where its outcome holds.
		cond := last.Op == isa.OpJbrs && b.Taken >= 0 && b.Next >= 0
		for _, e := range [2]struct {
			succ  int
			taken bool
		}{{b.Taken, true}, {b.Next, false}} {
			if e.succ < 0 {
				continue
			}
			out := st
			if cond {
				// A decided T rules the other side out, and the block's
				// own compare refines its register operand.
				holds := e.taken == (last.Suffix != isa.SufF)
				if t, ok := out.regs[gSlotT].IsPoint(); ok && (t != 0) != holds {
					continue
				}
				if cmp.valid {
					refine(&out, cmp, holds)
				}
				if !out.live {
					continue
				}
			}
			outs = append(outs, out)
			targets = append(targets, e.succ)
		}
		return outs, targets
	}

	work := []int{entry}
	queued := make([]bool, len(blocks))
	queued[entry] = true
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		outs, targets := flow(bi, false)
		for i, succ := range targets {
			if in[succ].join(&outs[i], joins[succ] >= widenAfter) {
				joins[succ]++
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	// Narrowing: re-apply the (monotone) transfer from the widened
	// post-fixpoint a few times with plain joins, recovering bounds the
	// widening discarded (e.g. a counter's loop-exit limit). Starting
	// above the least fixpoint keeps every round sound.
	for round := 0; round < narrowRounds; round++ {
		next := make([]Env, len(blocks))
		next[entry].join(&e0, false)
		for bi := range blocks {
			if !in[bi].live {
				continue
			}
			outs, targets := flow(bi, false)
			for i, succ := range targets {
				next[succ].join(&outs[i], false)
			}
		}
		in = next
	}
	// Recording pass over the converged states.
	for bi := range blocks {
		if in[bi].live {
			flow(bi, true)
		}
	}
	return res
}

// Rows decodes every instruction of p for Intervals: the zero Row where
// isa.Decode refuses one.
func Rows(p *asm.Program) []isa.Row {
	rows := make([]isa.Row, len(p.Instrs))
	for i := range p.Instrs {
		if r, err := isa.Decode(&p.Instrs[i]); err == nil {
			rows[i] = r
		}
	}
	return rows
}

// stepInterval applies one instruction, decoded as r, to the abstract
// state. An instruction Decode refused (the zero Row) still assigns its
// destination, or a compare the T flag, a value no range bounds.
func stepInterval(st *Env, in *isa.Instr, r *isa.Row, cmp *cmpFact) {
	if isCompare(in.Op) {
		st.regs[gSlotT], *cmp = Range(0, 1), cmpFact{}
		if r.Instr != nil && !in.IsFloat() {
			// Floating-point compares read runtime data and decide nothing.
			st.regs[gSlotT], *cmp = compare(st, in)
		}
		st.def |= 1 << gSlotT
		return
	}
	dst, hasDst := in.Dst()
	if !hasDst {
		return
	}
	s := gSlot(dst)
	if s < 0 {
		return
	}
	st.def |= 1 << s
	if s >= gSlotV {
		return
	}
	if cmp.valid && s == cmp.slot {
		cmp.valid = false // the compared register is being overwritten
	}
	nv := Top()
	switch {
	case r.Instr == nil || r.Vector || in.IsFloat() || in.Op == isa.OpLd:
		// Refused, a vector op writing a scalar (sum.d), a floating-point
		// result or loaded runtime data: no integer range.
	case in.Op == isa.OpMov:
		nv = operandInterval(st, in.Ops[0])
	default:
		// Every other scalar form with a destination is integer ALU.
		nv = aluInterval(st, in)
	}
	if s == gSlotVL {
		nv = nv.Clamp(0, int64(isa.VLMax))
	}
	st.regs[s] = nv
}

func operandInterval(st *Env, o isa.Operand) Interval {
	switch o.Kind {
	case isa.KindImm:
		return Point(o.Imm)
	case isa.KindReg:
		return st.Reg(o.Reg)
	}
	return Top()
}

func aluInterval(st *Env, in *isa.Instr) Interval {
	var x, y Interval
	dst := in.Ops[len(in.Ops)-1]
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			return operandInterval(st, in.Ops[0]).Neg()
		}
		x = operandInterval(st, dst)
		y = operandInterval(st, in.Ops[0])
	} else {
		x = operandInterval(st, in.Ops[0])
		y = operandInterval(st, in.Ops[1])
	}
	switch in.Op {
	case isa.OpAdd:
		return x.Add(y)
	case isa.OpSub:
		return x.Sub(y)
	case isa.OpMul:
		return x.Mul(y)
	case isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpShf:
		// Fold only point operands; ranges of these are rarely useful.
		xv, xok := x.IsPoint()
		yv, yok := y.IsPoint()
		if xok && yok {
			switch in.Op {
			case isa.OpDiv:
				if yv != 0 {
					return Point(xv / yv)
				}
			case isa.OpAnd:
				return Point(xv & yv)
			case isa.OpOr:
				return Point(xv | yv)
			case isa.OpShf:
				if yv >= 0 {
					return Point(xv << uint(yv&63))
				}
				return Point(xv >> uint((-yv)&63))
			}
		}
	}
	return Top()
}

// compare evaluates an integer compare: the T flag it sets (1 or 0 when
// the operand ranges decide it, [0,1] otherwise) and, when one operand is
// a tracked register, the fact its branch refines that register with.
func compare(st *Env, in *isa.Instr) (Interval, cmpFact) {
	x, y := operandInterval(st, in.Ops[0]), operandInterval(st, in.Ops[1])
	t := Range(0, 1)
	switch {
	case constrain(x, in.Op, y, false).Empty():
		t = Point(1)
	case constrain(x, in.Op, y, true).Empty():
		t = Point(0)
	}
	slotOf := func(o isa.Operand) int {
		if o.Kind == isa.KindReg {
			if s := gSlot(o.Reg); s < gSlotV {
				return s
			}
		}
		return -1
	}
	if s := slotOf(in.Ops[0]); s >= 0 {
		return t, cmpFact{valid: true, op: in.Op, slot: s, rhs: y}
	}
	if s := slotOf(in.Ops[1]); s >= 0 {
		return t, cmpFact{valid: true, op: flipCmp(in.Op), slot: s, rhs: x}
	}
	return t, cmpFact{}
}

// flipCmp rewrites "c OP x" as "x OP' c".
func flipCmp(op isa.Op) isa.Op {
	switch op {
	case isa.OpLe:
		return isa.OpGe
	case isa.OpLt:
		return isa.OpGt
	case isa.OpGt:
		return isa.OpLt
	case isa.OpGe:
		return isa.OpLe
	}
	return op // Eq, Ne are symmetric
}

// negateCmp rewrites "x OP c" as its negation "x OP' c".
func negateCmp(op isa.Op) isa.Op {
	switch op {
	case isa.OpLe:
		return isa.OpGt
	case isa.OpLt:
		return isa.OpGe
	case isa.OpGt:
		return isa.OpLe
	case isa.OpGe:
		return isa.OpLt
	case isa.OpEq:
		return isa.OpNe
	case isa.OpNe:
		return isa.OpEq
	}
	return op
}

// refine narrows the compared register's range along one branch edge.
// assert=true keeps states where "slot OP rhs" holds, false its negation;
// an edge no value admits is dead.
func refine(st *Env, cmp cmpFact, assert bool) {
	ref := constrain(st.regs[cmp.slot], cmp.op, cmp.rhs, assert)
	if ref.Empty() {
		st.live = false
		return
	}
	st.regs[cmp.slot] = ref
}

// constrain narrows x to the values for which "x OP rhs" holds (assert)
// or fails (!assert). The result is Empty when no value of x admits the
// outcome, and x itself when the outcome does not narrow it.
func constrain(x Interval, op isa.Op, rhs Interval, assert bool) Interval {
	if !assert {
		op = negateCmp(op)
	}
	switch op {
	case isa.OpLe:
		if rhs.HiBnd {
			return x.Meet(AtMost(rhs.Hi))
		}
	case isa.OpLt:
		if rhs.HiBnd && rhs.Hi != math.MinInt64 {
			return x.Meet(AtMost(rhs.Hi - 1))
		}
	case isa.OpGe:
		if rhs.LoBnd {
			return x.Meet(AtLeast(rhs.Lo))
		}
	case isa.OpGt:
		if rhs.LoBnd && rhs.Lo != math.MaxInt64 {
			return x.Meet(AtLeast(rhs.Lo + 1))
		}
	case isa.OpEq:
		return x.Meet(rhs)
	case isa.OpNe:
		// Only a point can be excluded, and only at a boundary.
		p, ok := rhs.IsPoint()
		if !ok {
			break
		}
		if v, ok := x.IsPoint(); ok && v == p {
			return Range(1, 0)
		}
		if x.LoBnd && x.Lo == p {
			x.Lo++
		}
		if x.HiBnd && x.Hi == p {
			x.Hi--
		}
	}
	return x
}

// Block is one basic block [Start, End) of a program's control flow
// graph.
type Block struct {
	Start, End int
	// Taken is the block a branch ending this one jumps to and Next the
	// block control falls through to; -1 where there is none.
	Taken, Next int
}

// buildBlocks partitions a program into basic blocks. entry is the block
// started by the load entry point (label "main" if present, else 0).
func buildBlocks(p *asm.Program) (blocks []Block, entry int) {
	n := len(p.Instrs)
	entryPC := 0
	if idx, ok := p.Labels["main"]; ok && idx >= 0 && idx < n {
		entryPC = idx
	}
	leader := make([]bool, n+1)
	leader[0] = true
	leader[entryPC] = true
	for i, in := range p.Instrs {
		if in.IsBranch() {
			leader[i+1] = true
			if t, ok := labelTarget(p, in); ok && t < n {
				leader[t] = true
			}
		}
		if in.Op == isa.OpHalt {
			leader[i+1] = true
		}
	}
	startOf := make([]int, n+1) // instr index -> block index, at leaders
	for i := 0; i < n; i++ {
		if leader[i] {
			startOf[i] = len(blocks)
			blocks = append(blocks, Block{Start: i, Taken: -1, Next: -1})
		}
	}
	for bi := range blocks {
		b := &blocks[bi]
		b.End = n
		if bi+1 < len(blocks) {
			b.End = blocks[bi+1].Start
		}
		last := p.Instrs[b.End-1]
		if last.IsBranch() {
			if t, ok := labelTarget(p, last); ok && t < n {
				b.Taken = startOf[t]
			}
		}
		if b.End < n && last.Op != isa.OpHalt && last.Op != isa.OpJmp {
			b.Next = startOf[b.End]
		}
	}
	return blocks, startOf[entryPC]
}

func labelTarget(p *asm.Program, in isa.Instr) (int, bool) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			t, ok := p.Labels[o.Label]
			return t, ok && t >= 0
		}
	}
	return 0, false
}
