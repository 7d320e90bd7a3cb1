package verify_test

import (
	"reflect"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/mem"
	"macs/internal/verify"
	"macs/internal/vm"
)

// FuzzVerify runs the checker on arbitrary assembly text. For every
// program the parser accepts, Check must not panic, must return the same
// findings twice, must anchor every finding inside the program (or at -1
// for program-level findings), and Must must refuse exactly the programs
// whose findings include an error. Seeds are the compiled LFKs and the
// bad-program corpus.
func FuzzVerify(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Parse(src)
		if err != nil {
			return
		}
		ds := verify.Check(p)
		if again := verify.Check(p); !reflect.DeepEqual(ds, again) {
			t.Fatalf("Check is not deterministic:\n%v\n%v\n%s", ds, again, src)
		}
		for _, d := range ds {
			if d.Instr < -1 || d.Instr >= len(p.Instrs) {
				t.Fatalf("finding anchored outside the program (%d instrs): %s\n%s", len(p.Instrs), d, src)
			}
		}
		if (verify.Must(p) != nil) != verify.HasErrors(ds) {
			t.Fatalf("Must disagrees with HasErrors on:\n%s", src)
		}
	})
}

// FuzzSimulate runs arbitrary assembly on the simulator under small
// budgets. Every program the parser and the loader accept must run to
// its end or to an error without panicking, and every program the
// checker accepts must load: verify-clean means the simulator runs it.
// The one load refusal left to the loader is data that the configured
// memory cannot place, so that refusal must be the memory layout's own
// for the same size. Seeds are the compiled LFKs, the bad-program corpus
// and the programs the checker and the simulator once disagreed on: the
// shape programs, and a data name defined twice.
func FuzzSimulate(f *testing.F) {
	addSeeds(f)
	for _, tc := range shapeCases {
		f.Add(tc.src)
	}
	f.Add("mov #0,a0\nst.l a0,d_X\nhalt\n.data d_X 8\n.data d_X 16\n")
	cfg := vm.DefaultConfig()
	cfg.MaxInstrs, cfg.MaxCycles = 5000, 1<<20
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Parse(src)
		if err != nil {
			return
		}
		cpu := vm.New(cfg)
		loadErr := cpu.Load(p)
		if loadErr != nil {
			if verify.Must(p) == nil && !sameError(loadErr, outOfMemory(p, cfg.MemSize)) {
				t.Fatalf("verify-clean program refused by the loader: %v\n%s", loadErr, src)
			}
			return
		}
		_, _ = cpu.Run() // data errors and budgets may end a run; a panic may not
	})
}

// outOfMemory lays out p's data in a memory of size bytes as the loader
// does, returning the refusal of the first symbol that does not fit. A
// name is placed once: its second definition is no memory refusal, so
// it is not excused.
func outOfMemory(p *asm.Program, size int64) error {
	l := mem.NewLayout(size)
	for _, d := range p.Data {
		if _, placed := l.Addr(d.Name); placed {
			return nil
		}
		if _, err := l.Place(d.Name, d.Size); err != nil {
			return err
		}
	}
	return nil
}

func sameError(a, b error) bool { return a != nil && b != nil && a.Error() == b.Error() }

// addSeeds seeds a fuzz target with the compiled LFKs and the
// bad-program corpus.
func addSeeds(f *testing.F) {
	for _, k := range lfk.All() {
		p, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			f.Fatalf("LFK%d does not compile: %v", k.ID, err)
		}
		f.Add(p.String())
	}
	for _, tc := range badCorpus {
		f.Add(tc.src)
	}
}
