package compiler

import (
	"strings"
	"testing"

	"macs/internal/asm"
	"macs/internal/vm"
)

// TestInputsWriteAndCheck: Write puts each input at its variable, Prime
// is nil when there is nothing to write, and every refusal reads the
// same from Write on a loaded simulator as from Check on the program.
func TestInputsWriteAndCheck(t *testing.T) {
	prog, err := Compile(lfk1Src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if (Inputs{}).Prime() != nil || (Inputs{Ints: map[string]int64{}}).Prime() != nil {
		t.Error("empty inputs give a prime callback")
	}
	loaded := func() *vm.CPU {
		cpu := vm.New(vm.DefaultConfig())
		if err := cpu.Load(prog); err != nil {
			t.Fatal(err)
		}
		return cpu
	}

	in := Inputs{
		Ints:   map[string]int64{"N": 7},
		Reals:  map[string]float64{"Q": 0.5},
		Arrays: map[string][]float64{"Y": make([]float64, 2001)},
	}
	in.Arrays["Y"][2000] = 2.5
	if err := in.Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	cpu := loaded()
	if err := in.Prime()(cpu); err != nil {
		t.Fatalf("Write: %v", err)
	}
	base, _ := cpu.Memory().SymbolAddr(DataSym("N"))
	if n, _ := cpu.Memory().ReadI64(base); n != 7 {
		t.Errorf("N = %d, want 7", n)
	}
	if q := getF(t, cpu, "Q", 0); q != 0.5 {
		t.Errorf("Q = %v, want 0.5", q)
	}
	if y := getF(t, cpu, "Y", 2000); y != 2.5 {
		t.Errorf("Y(2001) = %v, want 2.5", y)
	}
	if got := in.SymbolInts(); len(got) != 1 || got["d_N"] != 7 {
		t.Errorf("SymbolInts = %v, want map[d_N:7]", got)
	}

	if err := in.Write(vm.New(vm.DefaultConfig())); err == nil {
		t.Error("Write on a simulator with no program loaded succeeded")
	}

	for _, c := range []struct {
		in   Inputs
		want string
	}{
		{Inputs{Ints: map[string]int64{"M": 1}}, `inputs: unknown variable "M"`},
		{Inputs{Reals: map[string]float64{"B": 1}}, `inputs: unknown variable "B"`},
		{Inputs{Arrays: map[string][]float64{"Z": {1}}}, `inputs: unknown variable "Z"`},
		{Inputs{Arrays: map[string][]float64{"Y": make([]float64, 2002)}},
			`inputs: array "Y" has 2002 elements but is declared with 2001`},
		// Each input kind primes one declared kind.
		{Inputs{Reals: map[string]float64{"N": 64}},
			`inputs: variable "N" is declared an INTEGER scalar, not a REAL scalar`},
		{Inputs{Ints: map[string]int64{"X": 3}},
			`inputs: variable "X" is declared a REAL array, not an INTEGER scalar`},
		{Inputs{Reals: map[string]float64{"X": 3}},
			`inputs: variable "X" is declared a REAL array, not a REAL scalar`},
		{Inputs{Arrays: map[string][]float64{"Q": {1}}},
			`inputs: variable "Q" is declared a REAL scalar, not a REAL array`},
		{Inputs{Ints: map[string]int64{"Q": 1}},
			`inputs: variable "Q" is declared a REAL scalar, not an INTEGER scalar`},
	} {
		if err := c.in.Check(prog); err == nil || err.Error() != c.want {
			t.Errorf("Check %+v: %v, want %q", c.in, err, c.want)
		}
		if err := c.in.Write(loaded()); err == nil || err.Error() != c.want {
			t.Errorf("Write %+v: %v, want %q", c.in, err, c.want)
		}
	}
}

// TestInputsKindsOnlyFromSource: compiled data carries each declared
// variable's kind, so Check refuses a kind mistake; assembly text
// declares none, so the same program reparsed keeps only the name and
// length checks.
func TestInputsKindsOnlyFromSource(t *testing.T) {
	prog, err := Compile(lfk1Src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]asm.Kind{"d_X": asm.RealArray, "d_Q": asm.RealScalar, "d_N": asm.IntScalar}
	for _, d := range prog.Data {
		if k, ok := want[d.Name]; ok && d.Kind != k {
			t.Errorf("%s: kind %v, want %v", d.Name, d.Kind, k)
		}
		if _, ok := want[d.Name]; !ok && strings.HasPrefix(d.Name, "d_") == (d.Kind == asm.NoKind) {
			t.Errorf("%s: kind %v", d.Name, d.Kind)
		}
	}
	raw, err := asm.Parse(prog.String())
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Reals: map[string]float64{"N": 64}, Ints: map[string]int64{"X": 3}}
	if err := in.Check(raw); err != nil {
		t.Errorf("Check on assembly text: %v, want no kind check", err)
	}
	if err := in.Check(prog); err == nil {
		t.Error("Check on the compiled program accepted kind mistakes")
	}
}
