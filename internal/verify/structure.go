package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/isa"
)

// structural reports what only the whole program decides: every label
// index inside the program, each data symbol defined once (with
// asm.Program.DataDefinedOnce's text, the one the parser and the loader
// refuse with), and every data symbol and branch label an operand names
// defined. What one instruction's operands must be is isa.Decode's rule,
// which the decode pass reports. Whether the data fits the memory is the
// loader's, which knows the machine's memory size.
func structural(p *asm.Program) []Diagnostic {
	var ds []Diagnostic
	errf := func(i int, format string, args ...any) {
		ds = append(ds, Diagnostic{SevError, i, fmt.Sprintf(format, args...)})
	}
	for name, idx := range p.Labels {
		if idx < 0 || idx > len(p.Instrs) {
			errf(-1, "label %q index %d outside the program", name, idx)
		}
	}
	if err := p.DataDefinedOnce(); err != nil {
		errf(-1, "%s", err)
	}
	for i, in := range p.Instrs {
		for _, o := range in.Ops {
			switch o.Kind {
			case isa.KindMem:
				if o.Sym != "" {
					if _, ok := p.FindData(o.Sym); !ok {
						errf(i, "undefined data symbol %q", o.Sym)
					}
				}
			case isa.KindLabel:
				if _, ok := p.Labels[o.Label]; !ok {
					errf(i, "branch to undefined label %q", o.Label)
				}
			}
		}
	}
	return ds
}
