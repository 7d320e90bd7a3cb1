package fasttier

import (
	"cmp"
	"fmt"

	"macs/internal/asm"
	"macs/internal/isa"
	"macs/internal/mem"
	"macs/internal/vm"
)

// replay is the symbolic interpreter. Every cycle it charges comes from the
// embedded vm.Timing; what it adds is only what the simulator would need
// a memory image and floating-point values for: a symbolic integer
// machine (registers and memory words with known bits) that resolves trip
// counts and addresses, and a layout that range-checks every access.
type replay struct {
	vm.Timing
	cfg    vm.Config
	prog   *asm.Program
	rows   []isa.Row // prog decoded once (isa.Decode)
	layout *mem.Layout

	// Symbolic integer state. Registers start zero and known, exactly as
	// the simulator zero-initializes them; a value becomes unknown only
	// when floating-point data flows in (float loads, float arithmetic).
	a       [isa.NumARegs]int64
	aKnown  [isa.NumARegs]bool
	s       [isa.NumSRegs]int64
	sKnown  [isa.NumSRegs]bool
	vl      int
	vlKnown bool
	vs      int64
	vsKnown bool
	tf      bool
	tfKnown bool
	pc      int
	halted  bool

	// cells holds integer memory words (trip counts, loop bookkeeping);
	// unknownCells marks words holding floating-point or otherwise
	// unmodeled data. A word in neither map reads as zero, matching the
	// simulator's zeroed memory image.
	cells        map[int64]int64
	unknownCells map[int64]bool
}

// newReplay creates the interpreter of one prediction under cfg, in the
// simulator's reset state: registers zero and known, VL at its maximum,
// unit stride, nothing placed. Predictions record no timing events,
// whatever cfg's tracing settings.
func newReplay(cfg vm.Config) *replay {
	cfg.Trace, cfg.TraceRing = false, 0
	r := &replay{
		Timing:       vm.NewTiming(cfg),
		cfg:          cfg,
		layout:       mem.NewLayout(cfg.MemSize),
		cells:        make(map[int64]int64),
		unknownCells: make(map[int64]bool),
		vl:           cfg.VLMax,
		vlKnown:      true,
		vs:           isa.WordBytes,
		vsKnown:      true,
		tfKnown:      true,
	}
	for i := range r.aKnown {
		r.aKnown[i] = true
	}
	for i := range r.sKnown {
		r.sKnown[i] = true
	}
	return r
}

// predict replays one program. See Predictor.Predict for the contract.
func (r *replay) predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	if err := prog.Validate(); err != nil {
		return Prediction{}, err
	}
	r.prog = prog
	r.rows = make([]isa.Row, len(prog.Instrs))
	for i := range prog.Instrs {
		row, err := isa.Decode(&prog.Instrs[i])
		if err != nil {
			return Prediction{}, fmt.Errorf("fasttier: instr %d (%s): %w", i, &prog.Instrs[i], err)
		}
		r.rows[i] = row
	}
	for _, d := range prog.Data {
		addr, err := r.layout.Place(d.Name, d.Size)
		if err != nil {
			return Prediction{}, err
		}
		// The loader writes initial values word by word.
		if err := r.layout.CheckStream(addr, isa.WordBytes, len(d.Init)); err != nil {
			return Prediction{}, err
		}
		// Initialized data is floating point: its words are real values
		// the fast tier does not carry.
		for i := range d.Init {
			r.unknownCells[addr+int64(i*8)] = true
		}
	}
	for name, v := range ints {
		addr, ok := r.layout.Addr(name)
		if !ok {
			return Prediction{}, fmt.Errorf("fasttier: priming unknown symbol %q", name)
		}
		r.cells[addr] = v
		delete(r.unknownCells, addr)
	}
	if idx, ok := prog.Labels["main"]; ok {
		r.pc = idx
	}
	for {
		done, err := r.step()
		if err != nil {
			return Prediction{}, err
		}
		if done {
			break
		}
	}
	pred := Prediction{Stats: r.Stats()}
	if iterations > 0 {
		pred.CPL = float64(pred.Cycles) / float64(iterations)
	}
	return pred, nil
}

func (r *replay) step() (bool, error) {
	if r.halted || r.pc < 0 || r.pc >= len(r.prog.Instrs) {
		r.Finish()
		return true, nil
	}
	row := &r.rows[r.pc]
	in := *row.Instr
	if err := r.Fetch(row, r.pc); err != nil {
		return true, err
	}
	var jumped bool
	var err error
	if row.Vector {
		err = r.execVector(row)
	} else {
		if in.Op == isa.OpHalt {
			r.halted = true
			r.Finish()
			return true, nil
		}
		jumped, err = r.execScalar(in)
	}
	if err != nil {
		return true, fmt.Errorf("fasttier: pc=%d (%s): %w", r.pc, in, err)
	}
	if !jumped {
		r.pc++
	}
	if r.pc < 0 || r.pc >= len(r.prog.Instrs) {
		r.halted = true
		r.Finish()
		return true, nil
	}
	return false, nil
}

// effAddr resolves a memory operand, whose symbol Validate found and
// predict placed. known is false when the base register's value carries
// unmodeled data.
func (r *replay) effAddr(o isa.Operand) (addr int64, known bool) {
	addr = o.Disp
	if o.Sym != "" {
		base, _ := r.layout.Addr(o.Sym)
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		return addr + r.a[o.Base.N], r.aKnown[o.Base.N]
	}
	return addr, true
}

// cellVal reads one integer memory word: primed or stored words return
// their value, unmarked words read zero (the simulator's zeroed image),
// and words holding floating-point data are unknown.
func (r *replay) cellVal(addr int64) (int64, bool) {
	if r.unknownCells[addr] {
		return 0, false
	}
	return r.cells[addr], true
}

func (r *replay) setCell(addr, v int64, known bool) {
	if known {
		r.cells[addr] = v
		delete(r.unknownCells, addr)
		return
	}
	delete(r.cells, addr)
	r.unknownCells[addr] = true
}

// intVal reads a source Decode admits as an integer (an immediate or an
// a, s, vl or vs register) plus its known bit.
func (r *replay) intVal(o *isa.Operand) (v int64, known bool) {
	if o.Kind == isa.KindImm {
		return o.Imm, true
	}
	switch o.Reg.Class {
	case isa.ClassA:
		return r.a[o.Reg.N], r.aKnown[o.Reg.N]
	case isa.ClassS:
		r.WaitScalar(o.Reg)
		return r.s[o.Reg.N], r.sKnown[o.Reg.N]
	case isa.ClassVL:
		return int64(r.vl), r.vlKnown
	}
	return r.vs, r.vsKnown
}

// setIntReg writes an integer to an a, s, vl or vs register. A vector
// length or stride the replay cannot know is ErrDataDependent.
func (r *replay) setIntReg(reg isa.Reg, v int64, known bool) error {
	switch reg.Class {
	case isa.ClassA:
		r.a[reg.N] = v
		r.aKnown[reg.N] = known
	case isa.ClassS:
		r.s[reg.N] = v
		r.sKnown[reg.N] = known
	case isa.ClassVL:
		if !known {
			return fmt.Errorf("vector length set from unmodeled data: %w", ErrDataDependent)
		}
		r.vl = int(max(0, min(v, int64(r.cfg.VLMax))))
		r.vlKnown = true
	default:
		if !known {
			return fmt.Errorf("vector stride set from unmodeled data: %w", ErrDataDependent)
		}
		r.vs = v
		r.vsKnown = true
	}
	return nil
}

// execScalar replays one ASU instruction, in a form Decode admits: its
// timing through the model, integer effects tracked symbolically, float
// effects dropped.
func (r *replay) execScalar(in isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpMov:
		r.ScalarOp()
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			src := in.Ops[0].Reg
			r.WaitScalar(src)
			r.s[dst.N], r.sKnown[dst.N] = r.s[src.N], r.sKnown[src.N]
			return false, nil
		}
		v, known := r.intVal(&in.Ops[0])
		return false, r.setIntReg(dst, v, known)
	case isa.OpLd:
		return false, r.scalarLoad(in)
	case isa.OpSt:
		return false, r.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, r.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		r.scalarCompare(in)
		return false, nil
	case isa.OpJmp, isa.OpJbrs:
		r.ScalarOp()
		if in.Op == isa.OpJbrs {
			if !r.tfKnown {
				return false, fmt.Errorf("branch on unmodeled comparison: %w", ErrDataDependent)
			}
			if r.tf == (in.Suffix == isa.SufF) {
				return false, nil // jbrs.t on a clear T flag, jbrs.f on a set one
			}
		}
		r.TakenBranch()
		r.pc = r.prog.Labels[in.Ops[0].Label]
		return true, nil
	}
	r.ScalarOp() // nop: Decode admits no other scalar opcode here
	return false, nil
}

func (r *replay) scalarLoad(in isa.Instr) error {
	addr, addrKnown := r.effAddr(in.Ops[0])
	dst := in.Ops[1].Reg
	r.ScalarLoad(dst)
	if !addrKnown {
		// The simulator might read anywhere, or fault; refuse rather
		// than guess.
		return fmt.Errorf("load from unmodeled address: %w", ErrDataDependent)
	}
	if err := r.layout.Check(addr, isa.WordBytes); err != nil {
		return err
	}
	var v int64
	known := false
	// A floating-point load produces a real value the fast tier does not
	// carry; only integer loads read the symbolic cell map.
	if !in.IsFloat() {
		v, known = r.cellVal(addr)
	}
	if dst.Class == isa.ClassA {
		r.a[dst.N], r.aKnown[dst.N] = v, known
	} else {
		r.s[dst.N], r.sKnown[dst.N] = v, known
	}
	return nil
}

func (r *replay) scalarStore(in isa.Instr) error {
	addr, addrKnown := r.effAddr(in.Ops[1])
	r.ScalarStore()
	if !addrKnown {
		// A store to an unresolvable address could alias any integer
		// cell the replay later reads; refuse rather than guess.
		return fmt.Errorf("store to unmodeled address: %w", ErrDataDependent)
	}
	if err := r.layout.Check(addr, isa.WordBytes); err != nil {
		return err
	}
	// A floating-point store poisons the cell for integer readers: the
	// simulator writes real bits there, which the fast tier does not carry.
	src := in.Ops[0].Reg
	if src.Class == isa.ClassA {
		r.setCell(addr, r.a[src.N], r.aKnown[src.N] && !in.IsFloat())
		return nil
	}
	r.WaitScalar(src)
	r.setCell(addr, r.s[src.N], r.sKnown[src.N] && !in.IsFloat())
	return nil
}

func (r *replay) scalarALU(in isa.Instr) error {
	r.ScalarOp()
	ops := in.Ops
	dst := ops[len(ops)-1].Reg
	if in.IsFloat() {
		// Floating-point result: honor the timing side effects (waits on
		// vector-produced scalars) and mark the destination unmodeled.
		for _, o := range ops[:len(ops)-1] {
			if o.Kind == isa.KindReg {
				r.WaitScalar(o.Reg)
			}
		}
		if len(ops) == 2 && in.Op != isa.OpNeg {
			r.WaitScalar(dst) // two-operand form reads the destination
		}
		r.s[dst.N], r.sKnown[dst.N] = 0, false
		return nil
	}
	// x OP y, read in that order: the two-operand form reads its
	// destination first; neg reads only x.
	xo, yo := &ops[0], &ops[len(ops)-1]
	switch {
	case len(ops) == 3:
		yo = &ops[1]
	case in.Op != isa.OpNeg:
		xo, yo = yo, xo
	}
	x, xk := r.intVal(xo)
	if in.Op == isa.OpNeg {
		return r.setIntReg(dst, -x, xk)
	}
	y, yk := r.intVal(yo)
	if !xk || !yk {
		return r.setIntReg(dst, 0, false)
	}
	v, err := vm.IntALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return r.setIntReg(dst, v, true)
}

func (r *replay) scalarCompare(in isa.Instr) {
	r.ScalarOp()
	if in.IsFloat() {
		for _, o := range in.Ops {
			if o.Kind == isa.KindReg {
				r.WaitScalar(o.Reg)
			}
		}
		r.tfKnown = false
		return
	}
	x, xk := r.intVal(&in.Ops[0])
	y, yk := r.intVal(&in.Ops[1])
	if !xk || !yk {
		r.tfKnown = false
		return
	}
	r.tf, r.tfKnown = vm.Condition(in.Op, cmp.Compare(x, y)), true
}

// execVector replays one vector instruction: the model times the stream,
// the interpreter resolves its length, stride and address and range-checks
// every element it would touch.
func (r *replay) execVector(row *isa.Row) error {
	if !r.vlKnown {
		return fmt.Errorf("vector length unknown: %w", ErrDataDependent)
	}
	vl := r.vl
	var ea int64
	if vl > 0 && row.Mem {
		// The bank-phase math needs the exact address.
		var known bool
		if ea, known = r.effAddr(row.Instr.Ops[row.MemOp]); !known {
			return fmt.Errorf("vector stream address unknown: %w", ErrDataDependent)
		}
		if !r.vsKnown {
			return fmt.Errorf("vector stride unknown: %w", ErrDataDependent)
		}
		if err := r.layout.CheckStream(ea, r.vs, vl); err != nil {
			return err
		}
	}
	r.Vector(row, vl, ea, r.vs)
	if vl > 0 && row.Op == isa.OpSum {
		// The reduction's value is floating point.
		r.s[row.Dst.N], r.sKnown[row.Dst.N] = 0, false
	}
	return nil
}
