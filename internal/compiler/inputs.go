package compiler

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/isa"
	"macs/internal/vm"
)

// Inputs are a program's memory inputs by Fortran variable name: scalar
// integers, scalar reals and real arrays. They are the one way inputs
// reach a compiled program: Write primes a simulator, SymbolInts is the
// predictor's view, and Check refuses names, kinds and array lengths the
// program does not declare. As a service request's "prime" member they
// are part of its cache key.
type Inputs struct {
	Ints   map[string]int64     `json:"ints,omitempty"`
	Reals  map[string]float64   `json:"reals,omitempty"`
	Arrays map[string][]float64 `json:"arrays,omitempty"`
}

// Prime returns Write as the prime callback the analysis entry points
// take, or nil when there is nothing to write, so an unprimed analysis
// records no prime stage in its trace.
func (in Inputs) Prime() func(*vm.CPU) error {
	if len(in.Ints) == 0 && len(in.Reals) == 0 && len(in.Arrays) == 0 {
		return nil
	}
	return in.Write
}

// Write writes the inputs into the memory of a simulator that has the
// program loaded, each array whole from its variable's base. It first
// checks them against that program: an array longer than its
// declaration, written on from the base, would overwrite the variables
// placed after it.
func (in Inputs) Write(cpu *vm.CPU) error {
	prog := cpu.Program()
	if prog == nil {
		return fmt.Errorf("inputs: no program loaded")
	}
	if err := in.Check(prog); err != nil {
		return err
	}
	// Check found every name among prog's data, all of which Load placed,
	// so each lookup below succeeds.
	m := cpu.Memory()
	for name, v := range in.Ints {
		base, _ := m.SymbolAddr(DataSym(name))
		if err := m.WriteI64(base, v); err != nil {
			return err
		}
	}
	for name, v := range in.Reals {
		base, _ := m.SymbolAddr(DataSym(name))
		if err := m.WriteF64(base, v); err != nil {
			return err
		}
	}
	for name, vals := range in.Arrays {
		base, _ := m.SymbolAddr(DataSym(name))
		if err := m.WriteStream(base, isa.WordBytes, vals); err != nil {
			return err
		}
	}
	return nil
}

// Check decides whether the inputs fit prog's declarations: every name a
// declared variable of the input's kind — ints prime INTEGER scalars,
// reals REAL scalars and arrays REAL arrays — and every array no longer
// than its declaration. A program from assembly text declares no kinds,
// so only its names and lengths are checked. Write refuses through
// Check, so a mistake reads the same whether the inputs are written or
// checked before any run.
func (in Inputs) Check(prog *asm.Program) error {
	size := func(name string, kind asm.Kind) (int64, error) {
		sym := DataSym(name)
		for _, d := range prog.Data {
			if d.Name != sym {
				continue
			}
			if d.Kind != asm.NoKind && d.Kind != kind {
				return 0, fmt.Errorf("inputs: variable %q is declared %s, not %s", name, d.Kind, kind)
			}
			return d.Size, nil
		}
		return 0, fmt.Errorf("inputs: unknown variable %q", name)
	}
	for name := range in.Ints {
		if _, err := size(name, asm.IntScalar); err != nil {
			return err
		}
	}
	for name := range in.Reals {
		if _, err := size(name, asm.RealScalar); err != nil {
			return err
		}
	}
	for name, vals := range in.Arrays {
		n, err := size(name, asm.RealArray)
		if err != nil {
			return err
		}
		if words := n / isa.WordBytes; int64(len(vals)) > words {
			return fmt.Errorf("inputs: array %q has %d elements but is declared with %d", name, len(vals), words)
		}
	}
	return nil
}

// SymbolInts returns the integer inputs keyed by data symbol ("N"
// becomes "d_N"), the view the predictor reads in place of a memory
// image. Reals and arrays never steer its timing model: a program whose
// schedule depends on them is data-dependent, and is simulated.
func (in Inputs) SymbolInts() map[string]int64 {
	if len(in.Ints) == 0 {
		return nil
	}
	out := make(map[string]int64, len(in.Ints))
	for name, v := range in.Ints {
		out[DataSym(name)] = v
	}
	return out
}
