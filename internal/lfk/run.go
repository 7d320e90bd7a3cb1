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

// NewCPU creates a simulator, loads the program and writes the kernel's
// inputs into its memory.
func (c *Compiled) NewCPU(cfg vm.Config) (*vm.CPU, error) {
	cpu := vm.New(cfg)
	if err := cpu.Load(c.Program); err != nil {
		return nil, err
	}
	if err := c.Kernel.Inputs.Write(cpu); err != nil {
		return nil, err
	}
	return cpu, nil
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

// Validate compares the memory of a simulator that ran the kernel
// against the kernel's Go reference implementation; it returns the first
// mismatch.
func (k *Kernel) Validate(cpu *vm.CPU) error {
	want := k.Reference(k)
	m := cpu.Memory()
	for _, name := range k.Outputs {
		expect, ok := want[name]
		if !ok {
			return fmt.Errorf("reference does not produce %s", name)
		}
		base, ok := m.SymbolAddr(compiler.DataSym(name))
		if !ok {
			return fmt.Errorf("output symbol %s missing", name)
		}
		for i, w := range expect {
			got, err := m.ReadF64(base + int64(i*8))
			if err != nil {
				return err
			}
			if !closeEnough(got, w) {
				return fmt.Errorf("%s(%d) = %v, want %v", name, i+1, got, w)
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
