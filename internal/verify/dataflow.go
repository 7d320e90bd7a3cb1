package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/depgraph"
	"macs/internal/isa"
)

// The dataflow pass reads depgraph's interval fixpoint: before every
// instruction, a value range for each a/s register, VL, VS and the T
// flag, and a must-defined bit for each register. Must-defined bits join
// by AND, so a register is reported used before definition only when
// some feasible path from the entry reaches the use without assigning
// it. Blocks the fixpoint never reaches, including branch sides a
// decided compare rules out, are unreachable code.
//
// A point interval is a known constant. It drives the exact memory-bounds
// messages (absolute operands and constant bases; vector streams over
// their whole VL×VS span, VL clamped to the hardware maximum like the
// machine does), the VL=0 no-op note and the bank-conflict stride
// warning. Bounded ranges decide the accesses no constant resolves.
//
// The fixpoint folds only what the simulator runs, so it reads the rows
// with every instruction Decode refused (refused) zeroed, while the use
// check still reads a row refused for its form alone.
func dataflow(p *asm.Program, rows []isa.Row, refused []Diagnostic) []Diagnostic {
	var ds []Diagnostic
	rep := func(sev Severity, idx int, format string, args ...any) {
		ds = append(ds, Diagnostic{sev, idx, fmt.Sprintf(format, args...)})
	}
	run := rows
	if len(refused) > 0 {
		run = append([]isa.Row(nil), rows...)
		for _, d := range refused {
			run[d.Instr] = isa.Row{}
		}
	}
	iv := depgraph.Intervals(p, run)
	for _, b := range iv.Blocks {
		if !iv.Pre[b.Start].Live() {
			rep(SevInfo, b.Start, "unreachable code")
			continue
		}
		for i := b.Start; i < b.End; i++ {
			st := &iv.Pre[i]
			if rows[i].Instr != nil {
				reportUses(st, &rows[i], i, rep)
			}
			checkMem(st, p, p.Instrs[i], i, rep)
		}
	}
	return ds
}

// reportUses flags reads of registers some path leaves unassigned, over
// the decoded read set the dependence graph also uses: the implicit
// VL/VS reads of vector instructions and the destination read of
// two-operand ALU forms included.
func reportUses(st *depgraph.Env, row *isa.Row, idx int, rep func(Severity, int, string, ...any)) {
	for _, r := range row.Reads() {
		if st.Defined(r) {
			continue
		}
		switch r.Class {
		case isa.ClassVL:
			rep(SevError, idx, "vector instruction before vl is set")
		case isa.ClassVS:
			rep(SevError, idx, "vector memory access before vs is set")
		default:
			rep(SevError, idx, "use of %s before definition", r)
		}
	}
	if row.Vector {
		if vl, ok := st.Reg(isa.VL()).IsPoint(); ok && vl == 0 {
			rep(SevInfo, idx, "vector instruction with vl=0 is a no-op")
		}
	}
}

// checkMem statically bounds-checks memory operands whose effective
// address is resolvable — exactly (no base register, or a constant base)
// or as a bounded interval — and warns about bank-conflict strides on
// vector streams.
func checkMem(st *depgraph.Env, p *asm.Program, in isa.Instr, idx int, rep func(Severity, int, string, ...any)) {
	if !in.IsMemory() {
		return
	}
	vector := in.IsVector()
	for _, o := range in.Ops {
		if o.Kind != isa.KindMem || o.Sym == "" {
			continue
		}
		d, ok := p.FindData(o.Sym)
		if !ok {
			continue // structural pass reports the undefined symbol
		}
		addr := depgraph.Point(o.Disp)
		if o.Base.Class == isa.ClassA {
			addr = addr.Add(st.Reg(o.Base))
		}
		off, offKnown := addr.IsPoint()
		if !vector {
			if offKnown && (off < 0 || off+isa.WordBytes > d.Size) {
				rep(SevError, idx, "scalar access at %s%+d is out of bounds (%s is %d bytes)",
					o.Sym, off, o.Sym, d.Size)
			}
			if !offKnown {
				checkMemInterval(st, in, addr, o.Sym, d.Size, idx, rep)
			}
			continue
		}
		vs, vsKnown := st.Reg(isa.VS()).IsPoint()
		count := int64(isa.VLMax) // the machine clamps VL to VLMax
		if vl, ok := st.Reg(isa.VL()).IsPoint(); ok {
			count = vl
		}
		if vsKnown && count > 1 && vs%(isa.WordBytes*isa.MemBanks) == 0 {
			rep(SevWarning, idx,
				"stride %d bytes ≡ 0 mod %d banks: every element hits the same memory bank (%d-cycle bank busy serializes the stream)",
				vs, isa.MemBanks, isa.BankCycle)
		}
		if !offKnown || !vsKnown {
			checkMemInterval(st, in, addr, o.Sym, d.Size, idx, rep)
			continue
		}
		if count <= 0 {
			continue
		}
		lo, hi := off, off
		last := off + (count-1)*vs
		if last < lo {
			lo = last
		}
		if last > hi {
			hi = last
		}
		hi += isa.WordBytes
		if lo < 0 || hi > d.Size {
			rep(SevError, idx,
				"vector %s spans [%d,%d) of %s (%d bytes): out of bounds for %d elements, stride %d",
				memVerb(in), lo, hi, o.Sym, d.Size, count, vs)
		}
	}
}

// checkMemInterval decides accesses no constant resolves from the
// effective-address interval addr (for vector streams, widened to the
// whole span). A bounded range wholly inside the symbol is silently
// proven in bounds, which handles loop-variant bases with symbolic trip
// counts. A bounded range that can exceed the symbol may be out of
// bounds on some admitted path (warning); one that cannot possibly be in
// bounds is an error. Unbounded ranges stay silent: an
// over-approximation cannot prove a violation.
func checkMemInterval(st *depgraph.Env, in isa.Instr, addr depgraph.Interval, sym string, size int64, idx int, rep func(Severity, int, string, ...any)) {
	span := addr
	kind := "scalar"
	if in.IsVector() {
		kind = "vector"
		count := st.Reg(isa.VL()).Meet(depgraph.Range(1, int64(isa.VLMax)))
		if count.Empty() {
			return // provably zero-length stream: no access at all
		}
		last := addr.Add(count.Sub(depgraph.Point(1)).Mul(st.Reg(isa.VS())))
		span = span.Join(last)
	}
	if !span.Bounded() {
		return
	}
	lo, hi := span.Lo, span.Hi+isa.WordBytes
	switch {
	case lo >= 0 && hi <= size:
		// Statically proven in bounds.
	case span.Lo+isa.WordBytes > size || span.Hi < 0:
		rep(SevError, idx,
			"%s %s range [%d,%d) of %s (%d bytes): out of bounds for every admitted address",
			kind, memVerb(in), lo, hi, sym, size)
	default:
		rep(SevWarning, idx,
			"%s %s range [%d,%d) of %s (%d bytes): may be out of bounds",
			kind, memVerb(in), lo, hi, sym, size)
	}
}

func memVerb(in isa.Instr) string {
	if in.IsStore() {
		return "store"
	}
	return "load"
}
