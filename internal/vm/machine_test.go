package vm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"macs/internal/mem"
)

// TestFingerprintDistinguishesEveryField flips each Machine field in turn
// (via reflection, so a field added without updating this test still gets
// covered) and requires the fingerprint to change. A field the
// fingerprint ignores would let two different machines share cached
// results.
func TestFingerprintDistinguishesEveryField(t *testing.T) {
	base := DefaultMachine()
	fp := base.Fingerprint()
	if fp2 := DefaultMachine().Fingerprint(); fp2 != fp {
		t.Fatalf("fingerprint not deterministic: %s vs %s", fp, fp2)
	}

	perturb := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Struct:
			// Flip the struct's first bool/int field (Rules).
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if f.Kind() == reflect.Bool {
					f.SetBool(!f.Bool())
					return
				}
			}
			panic("no perturbable field in nested struct")
		default:
			panic("unhandled kind " + v.Kind().String())
		}
	}

	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		m := base
		perturb(reflect.ValueOf(&m).Elem().Field(i))
		if m == base {
			t.Fatalf("field %s: perturbation had no effect", rt.Field(i).Name)
		}
		if m.Fingerprint() == fp {
			t.Errorf("field %s not covered by Fingerprint", rt.Field(i).Name)
		}
	}
}

// TestFingerprintStable pins the default machine's fingerprint. Changing
// it invalidates every persisted cache entry, so it must only move when
// the machine description genuinely changes.
func TestFingerprintStable(t *testing.T) {
	const want = 13 // fields in Machine
	if got := reflect.TypeOf(Machine{}).NumField(); got != want {
		t.Fatalf("Machine has %d fields, test expects %d — update this pin", got, want)
	}
	fp := DefaultMachine().Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}
}

func TestBankConfigDefaults(t *testing.T) {
	// A zero-geometry machine keeps the C-240 memory system.
	m := Machine{RefreshStalls: true}
	got := m.BankConfig()
	want := mem.DefaultConfig()
	want.RefreshEnabled = true
	if got != want {
		t.Fatalf("zero-geometry BankConfig = %+v, want %+v", got, want)
	}

	// Set fields override; unset fields still fall back.
	m = Machine{Banks: 16, RefreshPeriod: 500}
	got = m.BankConfig()
	if got.Banks != 16 || got.RefreshPeriod != 500 {
		t.Fatalf("overrides not applied: %+v", got)
	}
	if got.BankCycle != mem.DefaultConfig().BankCycle || got.RefreshLen != mem.DefaultConfig().RefreshLen {
		t.Fatalf("fallbacks not applied: %+v", got)
	}
	if got.RefreshEnabled {
		t.Fatalf("RefreshEnabled should track RefreshStalls")
	}
}

// TestConfigJSONFlat: embedding Machine in Config must keep the wire
// shape flat — clients set "VLMax" or "Banks" at the top level, exactly
// as before the machine split.
func TestConfigJSONFlat(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"VLMax":64,"Banks":16,"MemSize":1024,"Trace":true}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.VLMax != 64 || cfg.Banks != 16 || cfg.MemSize != 1024 || !cfg.Trace {
		t.Fatalf("flat decode failed: %+v", cfg)
	}
	out, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatal(err)
	}
	if _, nested := top["Machine"]; nested {
		t.Fatalf("Config marshals with a nested Machine object: %s", out)
	}
	if _, ok := top["VLMax"]; !ok {
		t.Fatalf("promoted fields missing from wire shape: %s", out)
	}
}

func TestWithMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	m := DefaultMachine()
	m.Banks = 17
	got := cfg.WithMachine(m)
	if got.Banks != 17 || !got.Trace || got.MemSize != cfg.MemSize {
		t.Fatalf("WithMachine = %+v", got)
	}
}

// TestMachineCheck: a VLMax must lie in 1..isa.VLMax, since programs are
// strip-mined at the machine's VLMax (CompileVL) and the vector registers
// hold isa.VLMax elements; anything else is refused with one text.
func TestMachineCheck(t *testing.T) {
	for _, vlmax := range []int{1, 32, 64, 128} {
		m := DefaultMachine()
		m.VLMax = vlmax
		if err := m.Check(); err != nil {
			t.Errorf("VLMax %d refused: %v", vlmax, err)
		}
		if m.CompileVL() != vlmax {
			t.Errorf("VLMax %d compiles at %d", vlmax, m.CompileVL())
		}
	}
	for _, vlmax := range []int{-1, 0, 129, 256} {
		m := DefaultMachine()
		m.VLMax = vlmax
		want := fmt.Sprintf("vm: VLMax %d is outside 1..128, the vector register length", vlmax)
		if err := m.Check(); err == nil || err.Error() != want {
			t.Errorf("VLMax %d: error %v, want %q", vlmax, err, want)
		}
	}
}
