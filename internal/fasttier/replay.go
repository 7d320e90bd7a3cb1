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

// newReplay creates an interpreter for cfg. Predictions record no timing
// events, whatever cfg's tracing settings.
func newReplay(cfg vm.Config) *replay {
	cfg.Trace, cfg.TraceRing = false, 0
	return &replay{
		Timing:       vm.NewTiming(cfg),
		cfg:          cfg,
		layout:       mem.NewLayout(cfg.MemSize),
		cells:        make(map[int64]int64),
		unknownCells: make(map[int64]bool),
	}
}

// reset prepares the interpreter for the next prediction; the timing model
// keeps its memoized stream-stall table warm across pooled predictions.
func (r *replay) reset() {
	r.Timing.Reset()
	r.prog = nil
	r.layout.Reset()
	clear(r.cells)
	clear(r.unknownCells)
	r.a = [isa.NumARegs]int64{}
	r.s = [isa.NumSRegs]int64{}
	for i := range r.aKnown {
		r.aKnown[i] = true
	}
	for i := range r.sKnown {
		r.sKnown[i] = true
	}
	r.vl, r.vlKnown = r.cfg.VLMax, true
	r.vs, r.vsKnown = isa.WordBytes, true
	r.tf, r.tfKnown = false, true
	r.pc = 0
	r.halted = false
}

// predict replays one program. See Predictor.Predict for the contract.
func (r *replay) predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	r.reset()
	if err := prog.Validate(); err != nil {
		return Prediction{}, err
	}
	r.prog = prog
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
	in := r.prog.Instrs[r.pc]
	if err := r.Fetch(in, r.pc); err != nil {
		return true, err
	}
	var jumped bool
	var err error
	if in.IsVector() {
		err = r.execVector(in)
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

// effAddr resolves a memory operand. known is false when the base
// register's value carries unmodeled data.
func (r *replay) effAddr(o isa.Operand) (addr int64, known bool, err error) {
	addr = o.Disp
	known = true
	if o.Sym != "" {
		base, ok := r.layout.Addr(o.Sym)
		if !ok {
			return 0, false, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		addr += r.a[o.Base.N]
		known = known && r.aKnown[o.Base.N]
	}
	return addr, known, nil
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

// intVal reads an operand as an integer plus its known bit.
func (r *replay) intVal(o isa.Operand) (v int64, known bool, err error) {
	switch o.Kind {
	case isa.KindImm:
		return o.Imm, true, nil
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassA:
			return r.a[o.Reg.N], r.aKnown[o.Reg.N], nil
		case isa.ClassS:
			r.WaitScalar(o.Reg)
			return r.s[o.Reg.N], r.sKnown[o.Reg.N], nil
		case isa.ClassVL:
			return int64(r.vl), r.vlKnown, nil
		case isa.ClassVS:
			return r.vs, r.vsKnown, nil
		}
	}
	return 0, false, fmt.Errorf("operand %s is not an integer source", o)
}

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
	case isa.ClassVS:
		if !known {
			return fmt.Errorf("vector stride set from unmodeled data: %w", ErrDataDependent)
		}
		r.vs = v
		r.vsKnown = true
	default:
		return fmt.Errorf("cannot write integer to %s", reg)
	}
	return nil
}

// execScalar replays one ASU instruction: its timing through the model,
// integer effects tracked symbolically, float effects dropped.
func (r *replay) execScalar(in isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpNop:
		r.ScalarOp()
		return false, nil
	case isa.OpMov:
		if len(in.Ops) != 2 {
			return false, fmt.Errorf("mov needs 2 operands")
		}
		r.ScalarOp()
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			src := in.Ops[0].Reg
			r.WaitScalar(src)
			r.s[dst.N], r.sKnown[dst.N] = r.s[src.N], r.sKnown[src.N]
			return false, nil
		}
		v, known, err := r.intVal(in.Ops[0])
		if err != nil {
			return false, err
		}
		return false, r.setIntReg(dst, v, known)
	case isa.OpLd:
		return false, r.scalarLoad(in)
	case isa.OpSt:
		return false, r.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, r.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return false, r.scalarCompare(in)
	case isa.OpJmp:
		r.ScalarOp()
		r.TakenBranch()
		return true, r.jumpTo(in)
	case isa.OpJbrs:
		r.ScalarOp()
		if !r.tfKnown {
			return false, fmt.Errorf("branch on unmodeled comparison: %w", ErrDataDependent)
		}
		take := r.tf
		if in.Suffix == isa.SufF {
			take = !take
		}
		if !take {
			return false, nil
		}
		r.TakenBranch()
		return true, r.jumpTo(in)
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		return false, fmt.Errorf("%s has no scalar form in this subset", in.Op)
	}
	return false, fmt.Errorf("unreplayed scalar op %s", in.Op)
}

func (r *replay) jumpTo(in isa.Instr) error {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			idx, ok := r.prog.Labels[o.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", o.Label)
			}
			r.pc = idx
			return nil
		}
	}
	return fmt.Errorf("branch without label")
}

func (r *replay) scalarLoad(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar load needs 2 operands")
	}
	addr, addrKnown, err := r.effAddr(in.Ops[0])
	if err != nil {
		return err
	}
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
	if in.Suffix != isa.SufD && in.Suffix != isa.SufS {
		v, known = r.cellVal(addr)
	}
	switch dst.Class {
	case isa.ClassA:
		r.a[dst.N], r.aKnown[dst.N] = v, known
	case isa.ClassS:
		r.s[dst.N], r.sKnown[dst.N] = v, known
	default:
		return fmt.Errorf("bad scalar load destination %s", dst)
	}
	return nil
}

func (r *replay) scalarStore(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar store needs 2 operands")
	}
	addr, addrKnown, err := r.effAddr(in.Ops[1])
	if err != nil {
		return err
	}
	r.ScalarStore()
	if !addrKnown {
		// A store to an unresolvable address could alias any integer
		// cell the replay later reads; refuse rather than guess.
		return fmt.Errorf("store to unmodeled address: %w", ErrDataDependent)
	}
	if err := r.layout.Check(addr, isa.WordBytes); err != nil {
		return err
	}
	src := in.Ops[0].Reg
	// A floating-point store poisons the cell for integer readers: the
	// simulator writes real bits there, which the fast tier does not carry.
	floatStore := in.Suffix == isa.SufD || in.Suffix == isa.SufS
	switch src.Class {
	case isa.ClassA:
		r.setCell(addr, r.a[src.N], r.aKnown[src.N] && !floatStore)
		return nil
	case isa.ClassS:
		r.WaitScalar(src)
		r.setCell(addr, r.s[src.N], r.sKnown[src.N] && !floatStore)
		return nil
	}
	return fmt.Errorf("bad scalar store source %s", src)
}

func (r *replay) scalarALU(in isa.Instr) error {
	r.ScalarOp()
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
		// Floating-point result: honor the timing side effects (waits on
		// vector-produced scalars) and mark the destination unmodeled.
		for _, o := range in.Ops[:len(in.Ops)-1] {
			if o.Kind == isa.KindReg && o.Reg.Class == isa.ClassS {
				r.WaitScalar(o.Reg)
			}
		}
		if len(in.Ops) == 2 && in.Op != isa.OpNeg {
			r.WaitScalar(dst) // two-operand form reads the destination
		}
		if dst.Class != isa.ClassS {
			return fmt.Errorf("cannot write float to %s", dst)
		}
		r.s[dst.N], r.sKnown[dst.N] = 0, false
		return nil
	}
	var x, y int64
	var xk, yk bool
	var err error
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x, xk, err = r.intVal(in.Ops[0])
			if err != nil {
				return err
			}
			return r.setIntReg(dst, -x, xk)
		}
		x, xk, err = r.intVal(isa.RegOp(dst))
		if err != nil {
			return err
		}
		y, yk, err = r.intVal(in.Ops[0])
		if err != nil {
			return err
		}
	} else {
		x, xk, err = r.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, yk, err = r.intVal(in.Ops[1])
		if err != nil {
			return err
		}
	}
	if !xk || !yk {
		return r.setIntReg(dst, 0, false)
	}
	v, err := vm.IntALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return r.setIntReg(dst, v, true)
}

func (r *replay) scalarCompare(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("compare needs 2 operands")
	}
	r.ScalarOp()
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		for _, o := range in.Ops {
			if o.Kind == isa.KindReg && o.Reg.Class == isa.ClassS {
				r.WaitScalar(o.Reg)
			}
		}
		r.tfKnown = false
		return nil
	}
	x, xk, err := r.intVal(in.Ops[0])
	if err != nil {
		return err
	}
	y, yk, err := r.intVal(in.Ops[1])
	if err != nil {
		return err
	}
	if !xk || !yk {
		r.tfKnown = false
		return nil
	}
	r.tf, r.tfKnown = vm.Condition(in.Op, cmp.Compare(x, y)), true
	return nil
}

// execVector replays one vector instruction: the model times the stream,
// the interpreter resolves its length, stride and address and range-checks
// every element it would touch.
func (r *replay) execVector(in isa.Instr) error {
	if !r.vlKnown {
		return fmt.Errorf("vector length unknown: %w", ErrDataDependent)
	}
	vl := r.vl
	var ea int64
	if vl > 0 && in.IsMemory() {
		var err error
		if ea, err = r.vectorEA(in); err != nil {
			return err
		}
		if !r.vsKnown {
			return fmt.Errorf("vector stride unknown: %w", ErrDataDependent)
		}
		if err := r.layout.CheckStream(ea, r.vs, vl); err != nil {
			return err
		}
	}
	if err := r.Vector(in, vl, ea, r.vs); err != nil {
		return err
	}
	if vl > 0 && in.Op == isa.OpSum {
		// The reduction's value is floating point.
		if d, ok := in.Dst(); ok && d.Class == isa.ClassS {
			r.s[d.N], r.sKnown[d.N] = 0, false
		}
	}
	return nil
}

// vectorEA resolves the memory operand of a vector load or store; the
// bank-phase math needs the exact address.
func (r *replay) vectorEA(in isa.Instr) (int64, error) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			addr, known, err := r.effAddr(o)
			if err != nil {
				return 0, err
			}
			if !known {
				return 0, fmt.Errorf("vector stream address unknown: %w", ErrDataDependent)
			}
			return addr, nil
		}
	}
	return 0, fmt.Errorf("vector memory op without memory operand")
}
