package compiler

import (
	"testing"

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
	} {
		if err := c.in.Check(prog); err == nil || err.Error() != c.want {
			t.Errorf("Check %+v: %v, want %q", c.in, err, c.want)
		}
		if err := c.in.Write(loaded()); err == nil || err.Error() != c.want {
			t.Errorf("Write %+v: %v, want %q", c.in, err, c.want)
		}
	}
}
