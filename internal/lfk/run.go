package lfk

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/compiler"
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
// inputs into memory.
func (c *Compiled) Prime(cpu *vm.CPU) error {
	if err := cpu.Load(c.Program); err != nil {
		return err
	}
	return c.Kernel.Inputs.Write(cpu)
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
