package lfk

import (
	"testing"

	"macs/internal/compiler"
	"macs/internal/ftn"
	"macs/internal/vectorize"
	"macs/internal/vm"
)

func TestExcludedKernelsAreRecurrences(t *testing.T) {
	for _, k := range Excluded() {
		p, err := ftn.Parse(k.Source)
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		loop, ok := compiler.InnerLoop(p)
		if !ok {
			t.Fatalf("lfk%d: no loop", k.ID)
		}
		if _, err := vectorize.Vectorize(p, loop); err == nil {
			t.Errorf("lfk%d: the vectorizer accepted a true recurrence", k.ID)
		}
	}
}

func TestExcludedKernelsRunScalar(t *testing.T) {
	for _, k := range Excluded() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := Compile(k, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			st, cpu, err := c.Run(vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if st.VectorInstrs != 0 {
				t.Errorf("lfk%d used %d vector instructions on a recurrence", k.ID, st.VectorInstrs)
			}
			if err := k.Validate(cpu); err != nil {
				t.Fatal(err)
			}
			// The scalar fallback is far slower than the vectorized
			// kernels — the reason the paper's case study excludes them.
			cpl := k.CPL(st.Cycles)
			if cpl < 10 {
				t.Errorf("lfk%d scalar CPL = %.1f, implausibly fast", k.ID, cpl)
			}
			t.Logf("lfk%d scalar: %.1f CPL", k.ID, cpl)
		})
	}
}

func TestExcludedNotInMainSuite(t *testing.T) {
	for _, k := range All() {
		if k.ID == 5 || k.ID == 11 {
			t.Errorf("excluded kernel %d in the main suite", k.ID)
		}
	}
	if _, err := ByID(5); err == nil {
		t.Error("ByID(5) should not resolve from the case-study set")
	}
}
