package lfk

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/isa"
	"macs/internal/vm"
)

// Compiled bundles a kernel with its compiled program.
type Compiled struct {
	Kernel  *Kernel
	Program *asm.Program
}

// Compile compiles a kernel with the given options.
func Compile(k *Kernel, opts compiler.Options) (*Compiled, error) {
	prog, err := compiler.Compile(k.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("lfk%d: %w", k.ID, err)
	}
	return &Compiled{Kernel: k, Program: prog}, nil
}

// NewCPU creates a simulator, loads the program and primes the kernel's
// inputs.
func (c *Compiled) NewCPU(cfg vm.Config) (*vm.CPU, error) {
	cpu := vm.New(cfg)
	if err := c.Prime(cpu); err != nil {
		return nil, err
	}
	return cpu, nil
}

// Prime loads the kernel's program into a fresh simulator and writes its
// input scalars and arrays into memory.
func (c *Compiled) Prime(cpu *vm.CPU) error {
	if err := cpu.Load(c.Program); err != nil {
		return err
	}
	return c.PrimeData(cpu)
}

// PrimeData writes the kernel's input scalars and arrays into the memory
// of a simulator that already has the program loaded.
func (c *Compiled) PrimeData(cpu *vm.CPU) error {
	m := cpu.Memory()
	k := c.Kernel
	for name, val := range k.Ints {
		base, ok := m.SymbolAddr(compiler.DataSym(name))
		if !ok {
			return fmt.Errorf("lfk%d: symbol %s missing", k.ID, name)
		}
		if err := m.WriteI64(base, val); err != nil {
			return err
		}
	}
	for name, val := range k.Reals {
		base, ok := m.SymbolAddr(compiler.DataSym(name))
		if !ok {
			return fmt.Errorf("lfk%d: symbol %s missing", k.ID, name)
		}
		if err := m.WriteF64(base, val); err != nil {
			return err
		}
	}
	for name, vals := range k.Arrays {
		base, ok := m.SymbolAddr(compiler.DataSym(name))
		if !ok {
			return fmt.Errorf("lfk%d: symbol %s missing", k.ID, name)
		}
		if err := m.WriteStream(base, isa.WordBytes, vals); err != nil {
			return err
		}
	}
	return nil
}

// DataInts returns the kernel's integer inputs keyed by compiled data
// symbol name ("N" becomes "d_N") — the priming map the analytical fast
// tier takes in place of a memory image.
func (k *Kernel) DataInts() map[string]int64 {
	out := make(map[string]int64, len(k.Ints))
	for name, val := range k.Ints {
		out[compiler.DataSym(name)] = val
	}
	return out
}

// PrimeFunc returns a priming callback that writes the kernel's input
// scalars and arrays into any simulator that already has the kernel's
// program loaded — the shape macs.AnalyzeSourceVM and the explore
// engine's Request.Prime take.
func (k *Kernel) PrimeFunc() func(*vm.CPU) error {
	c := &Compiled{Kernel: k}
	return c.PrimeData
}

// Run executes the primed kernel and returns the simulator statistics.
func (c *Compiled) Run(cfg vm.Config) (vm.Stats, *vm.CPU, error) {
	cpu, err := c.NewCPU(cfg)
	if err != nil {
		return vm.Stats{}, nil, err
	}
	st, err := cpu.Run()
	if err != nil {
		return st, cpu, fmt.Errorf("lfk%d: %w", c.Kernel.ID, err)
	}
	return st, cpu, nil
}

// Validate compares the simulator's memory against the kernel's Go
// reference implementation; it returns the first mismatch.
func (c *Compiled) Validate(cpu *vm.CPU) error {
	k := c.Kernel
	want := k.Reference(k)
	m := cpu.Memory()
	for _, name := range k.Outputs {
		expect, ok := want[name]
		if !ok {
			return fmt.Errorf("lfk%d: reference does not produce %s", k.ID, name)
		}
		base, ok := m.SymbolAddr(compiler.DataSym(name))
		if !ok {
			return fmt.Errorf("lfk%d: output symbol %s missing", k.ID, name)
		}
		for i, w := range expect {
			got, err := m.ReadF64(base + int64(i*8))
			if err != nil {
				return err
			}
			if !closeEnough(got, w) {
				return fmt.Errorf("lfk%d: %s(%d) = %v, want %v", k.ID, name, i+1, got, w)
			}
		}
	}
	return nil
}

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	diff := math.Abs(got - want)
	return diff <= 1e-9*(1+math.Abs(want))
}
