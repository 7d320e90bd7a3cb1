// Package asm provides the assembly-level program model for the Convex-style
// ISA in internal/isa: a Program with labeled instructions and data symbols,
// a text parser and printer for the paper's assembly syntax, and inner-loop
// discovery used by the MACS bounds model.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"macs/internal/isa"
)

// DataDef declares a data symbol: Size bytes of memory, optionally
// initialized with 64-bit floating point values (8 bytes each, from the
// start of the region).
type DataDef struct {
	Name string
	Size int64
	Init []float64
	// Kind is the declared kind of the source variable the symbol holds:
	// what its inputs must be. It is NoKind for compiler data and for
	// assembly text, which declares none.
	Kind Kind
}

// Kind is the declared type and shape of a source variable.
type Kind uint8

// The kinds of a source variable: INTEGER or REAL, scalar or array.
const (
	NoKind Kind = iota
	IntScalar
	RealScalar
	IntArray
	RealArray
)

func (k Kind) String() string {
	switch k {
	case IntScalar:
		return "an INTEGER scalar"
	case RealScalar:
		return "a REAL scalar"
	case IntArray:
		return "an INTEGER array"
	case RealArray:
		return "a REAL array"
	}
	return "undeclared"
}

// Program is an assembled program: an instruction sequence with labels and
// data symbol definitions. The zero value is an empty program ready to use.
type Program struct {
	Instrs []isa.Instr
	Labels map[string]int // label -> index into Instrs
	Data   []DataDef
}

// Clone returns a deep copy of the program. Instruction operand slices are
// copied so the clone can be rewritten independently (the A/X generators
// rely on this).
func (p *Program) Clone() *Program {
	q := &Program{
		Instrs: make([]isa.Instr, len(p.Instrs)),
		Labels: make(map[string]int, len(p.Labels)),
		Data:   make([]DataDef, len(p.Data)),
	}
	for i, in := range p.Instrs {
		in.Ops = append([]isa.Operand(nil), in.Ops...)
		q.Instrs[i] = in
	}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	for i, d := range p.Data {
		d.Init = append([]float64(nil), d.Init...)
		q.Data[i] = d
	}
	return q
}

// Add appends an instruction and returns its index.
func (p *Program) Add(in isa.Instr) int {
	if in.Label != "" {
		p.setLabel(in.Label, len(p.Instrs))
	}
	p.Instrs = append(p.Instrs, in)
	return len(p.Instrs) - 1
}

// SetLabel attaches a label to the next instruction to be added (index
// len(Instrs)); it is also applied retroactively by Add when the
// instruction carries a Label.
func (p *Program) SetLabel(name string) {
	p.setLabel(name, len(p.Instrs))
}

func (p *Program) setLabel(name string, idx int) {
	if p.Labels == nil {
		p.Labels = make(map[string]int)
	}
	p.Labels[name] = idx
}

// AddData declares a data symbol.
func (p *Program) AddData(d DataDef) { p.Data = append(p.Data, d) }

// FindData returns the definition of a data symbol.
func (p *Program) FindData(name string) (DataDef, bool) {
	for _, d := range p.Data {
		if d.Name == name {
			return d, true
		}
	}
	return DataDef{}, false
}

// Validate checks what only the whole program decides: label indices
// lie within the program, each data symbol is defined once
// (DataDefinedOnce), and every data symbol and branch label an operand
// names is defined. What each instruction's operands must be is
// isa.Decode's rule.
func (p *Program) Validate() error {
	for name, idx := range p.Labels {
		if idx < 0 || idx > len(p.Instrs) {
			return fmt.Errorf("asm: label %q index %d out of range", name, idx)
		}
	}
	if err := p.DataDefinedOnce(); err != nil {
		return err
	}
	for i, in := range p.Instrs {
		for _, o := range in.Ops {
			switch o.Kind {
			case isa.KindMem:
				if o.Sym != "" {
					if _, ok := p.FindData(o.Sym); !ok {
						return fmt.Errorf("asm: instr %d (%s): undefined symbol %q", i, in, o.Sym)
					}
				}
			case isa.KindLabel:
				if _, ok := p.Labels[o.Label]; !ok {
					return fmt.Errorf("asm: instr %d (%s): undefined label %q", i, in, o.Label)
				}
			}
		}
	}
	return nil
}

// DataDefinedOnce reports the first data symbol the program defines
// more than once, whatever the sizes: the loader places each name once,
// so a second definition has no memory of its own.
func (p *Program) DataDefinedOnce() error {
	for i, d := range p.Data {
		for _, e := range p.Data[:i] {
			if e.Name == d.Name {
				return fmt.Errorf("asm: data symbol %q defined twice", d.Name)
			}
		}
	}
	return nil
}

// String renders the program in parseable assembly text.
func (p *Program) String() string {
	var b strings.Builder
	for _, d := range p.Data {
		fmt.Fprintf(&b, ".data %s %d", d.Name, d.Size)
		for _, v := range d.Init {
			fmt.Fprintf(&b, " %g", v)
		}
		b.WriteByte('\n')
	}
	labelsAt := make(map[int][]string)
	for name, idx := range p.Labels {
		labelsAt[idx] = append(labelsAt[idx], name)
	}
	for _, names := range labelsAt {
		sort.Strings(names)
	}
	for i, in := range p.Instrs {
		for _, name := range labelsAt[i] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "\t%s\n", in)
	}
	for _, name := range labelsAt[len(p.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", name)
	}
	return b.String()
}

// VectorCount returns the number of vector instructions in the slice,
// broken down by MACS class.
func VectorCount(instrs []isa.Instr) map[isa.OpClass]int {
	counts := make(map[isa.OpClass]int)
	for _, in := range instrs {
		if in.IsVector() {
			counts[in.Class()]++
		}
	}
	return counts
}
