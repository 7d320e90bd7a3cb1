package verify_test

import (
	"reflect"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/verify"
)

// FuzzVerify runs the checker on arbitrary assembly text. For every
// program the parser accepts, Check must not panic, must return the same
// findings twice, must anchor every finding inside the program (or at -1
// for program-level findings), and Must must refuse exactly the programs
// whose findings include an error. Seeds are the compiled LFKs and the
// bad-program corpus.
func FuzzVerify(f *testing.F) {
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
