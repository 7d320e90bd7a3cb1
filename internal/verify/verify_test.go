package verify_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/isa"
	"macs/internal/lfk"
	"macs/internal/verify"
)

// TestLFKKernelsVerifyClean is the paper-facing golden test: the
// compiled form of every case-study kernel passes the checker with zero
// errors, and the resource pass reproduces the paper's narrative — LFK8
// suffers register-pair pressure, LFK8 and LFK9 single-memory-port chime
// splits, at exactly the instructions where chime formation splits.
func TestLFKKernelsVerifyClean(t *testing.T) {
	warnings := map[int][]string{}
	warnAt := map[int][]int{}
	for _, k := range lfk.All() {
		p, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("LFK%d does not compile: %v", k.ID, err)
		}
		ds := verify.Check(p)
		for _, d := range ds {
			if d.Severity == verify.SevError {
				t.Errorf("LFK%d: unexpected error: %s", k.ID, d.Render(p))
			}
			if d.Severity == verify.SevWarning {
				warnings[k.ID] = append(warnings[k.ID], d.Message)
				warnAt[k.ID] = append(warnAt[k.ID], d.Instr)
			}
		}
		if err := verify.Must(p); err != nil {
			t.Errorf("LFK%d: Must rejected a clean kernel: %v", k.ID, err)
		}
	}
	wantWarn := func(id int, sub string) {
		for _, w := range warnings[id] {
			if strings.Contains(w, sub) {
				return
			}
		}
		t.Errorf("LFK%d: no warning containing %q; got %v", id, sub, warnings[id])
	}
	wantWarn(8, "register pair pressure")
	wantWarn(8, "single memory port")
	wantWarn(9, "single memory port")
	wantAt := map[int][]int{
		8: {65, 70, 76, 80, 84, 86, 88, 90, 92, 94, 98},
		9: {34, 38, 44},
	}
	for _, k := range lfk.All() {
		if !slices.Equal(warnAt[k.ID], wantAt[k.ID]) {
			t.Errorf("LFK%d warns at instrs %v, want %v", k.ID, warnAt[k.ID], wantAt[k.ID])
		}
	}
}

// badCase is one crafted bad program and the diagnostics it must
// produce. Every want entry is (severity, message substring).
type badCase struct {
	name string
	src  string
	want []struct {
		sev verify.Severity
		sub string
	}
}

func wants(pairs ...any) []struct {
	sev verify.Severity
	sub string
} {
	out := make([]struct {
		sev verify.Severity
		sub string
	}, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, struct {
			sev verify.Severity
			sub string
		}{pairs[i].(verify.Severity), pairs[i+1].(string)})
	}
	return out
}

// badCorpus is the crafted bad-program corpus: each program and the
// diagnostics it must produce.
var badCorpus = []badCase{
	{
		name: "use-before-def",
		src:  "add s0,s1,s2\nhalt\n",
		want: wants(
			verify.SevError, "use of s0 before definition",
			verify.SevError, "use of s1 before definition",
		),
	},
	{
		name: "vl-unset",
		src:  "mov #8,vs\nld.d d_X,v0\nhalt\n.data d_X 1024\n",
		want: wants(verify.SevError, "vector instruction before vl is set"),
	},
	{
		name: "vs-unset",
		src:  "mov #4,vl\nld.d d_X,v0\nhalt\n.data d_X 1024\n",
		want: wants(verify.SevError, "vector memory access before vs is set"),
	},
	{
		name: "oob-vector-store",
		src: "mov #1,s0\nmov #8,vl\nmov #8,vs\nmov s0,v0\n" +
			"st.d v0,d_Y\nhalt\n.data d_Y 32\n",
		want: wants(verify.SevError,
			"vector store spans [0,64) of d_Y (32 bytes): out of bounds for 8 elements, stride 8"),
	},
	{
		name: "oob-scalar-load",
		src:  "ld.l d_X+64,s0\nhalt\n.data d_X 64\n",
		want: wants(verify.SevError,
			"scalar access at d_X+64 is out of bounds (d_X is 64 bytes)"),
	},
	{
		name: "bank-conflict-stride",
		src: "mov #1,s0\nmov #4,vl\nmov #256,vs\nmov s0,v0\n" +
			"ld.d d_X,v0\nhalt\n.data d_X 2048\n",
		want: wants(verify.SevWarning,
			"stride 256 bytes ≡ 0 mod 32 banks: every element hits the same memory bank"),
	},
	{
		name: "vector-compare-untimed",
		src:  "mov #4,vl\nle.d v0,v1\nhalt\n",
		want: wants(verify.SevError, "le has no vector form (no Table 1 timing)"),
	},
	{
		name: "unreachable-code",
		src:  "jmp out\nmov #1,s0\nout:\n  halt\n",
		want: wants(verify.SevInfo, "unreachable code"),
	},
	{
		name: "vl-zero-noop",
		src:  "mov #0,s0\nmov s0,vl\nmov s0,v0\nhalt\n",
		want: wants(verify.SevInfo, "vector instruction with vl=0 is a no-op"),
	},
	{
		name: "two-op-dst-read",
		src:  "add.w #1,a0\nhalt\n",
		want: wants(verify.SevError, "use of a0 before definition"),
	},
	{
		name: "two-op-fp-dst-read",
		src:  "add.d s1,s2\nhalt\n",
		want: wants(
			verify.SevError, "use of s1 before definition",
			verify.SevError, "use of s2 before definition",
		),
	},
}

func TestBadProgramCorpus(t *testing.T) {
	for _, tc := range badCorpus {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Parse(tc.src)
			if err != nil {
				t.Fatalf("corpus program does not parse: %v", err)
			}
			ds := verify.Check(p)
			for _, w := range tc.want {
				if !hasDiag(ds, w.sev, w.sub) {
					t.Errorf("missing %v diagnostic containing %q; got:\n%s",
						w.sev, w.sub, renderAll(ds, p))
				}
			}
		})
	}
}

// TestConstBranchFolding is the regression test for the const-prop gap
// where compares were never folded into the T flag: the checker merged
// branch paths the machine can never take, and a register assigned only
// on the (always-taken) feasible side was reported as use-before-def.
// With the compare folded, the impossible side is pruned and surfaces as
// unreachable code instead.
func TestConstBranchFolding(t *testing.T) {
	src := `mov #0,a0
eq.w #0,a0
jbrs.t Ldef
jmp Luse
Ldef:
mov #7,a1
Luse:
st.l a1,d_out
halt
.data d_out 8
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ds := verify.Check(p)
	if hasDiag(ds, verify.SevError, "before definition") {
		t.Errorf("spurious use-before-def via an infeasible branch path:\n%s", renderAll(ds, p))
	}
	if !hasDiag(ds, verify.SevInfo, "unreachable code") {
		t.Errorf("pruned branch side not reported unreachable:\n%s", renderAll(ds, p))
	}
}

// TestConstBranchFoldingForms pins two compare forms the T folding
// decides: a compare separated from its jbrs by a block boundary (the
// label is a branch target, so T crosses blocks), and a compare of two
// immediates. In both the always-taken branch defines a1 on the only
// feasible path, so no use-before-def may be reported and the other side
// is unreachable.
func TestConstBranchFoldingForms(t *testing.T) {
	cases := []struct{ name, src string }{
		{"label-between-compare-and-branch", `mov #0,a0
eq.w #0,a0
Lchk:
jbrs.t Ldef
jmp Luse
Ldef:
mov #7,a1
Luse:
st.l a1,d_out
halt
jmp Lchk
.data d_out 8
`},
		{"immediate-operands", `lt.w #1,#2
jbrs.t Ldef
jmp Luse
Ldef:
mov #7,a1
Luse:
st.l a1,d_out
halt
.data d_out 8
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ds := verify.Check(p)
			if hasDiag(ds, verify.SevError, "before definition") {
				t.Errorf("spurious use-before-def via an infeasible branch path:\n%s", renderAll(ds, p))
			}
			if !hasDiag(ds, verify.SevInfo, "unreachable code") {
				t.Errorf("pruned branch side not reported unreachable:\n%s", renderAll(ds, p))
			}
		})
	}
}

// TestIntervalMemCheck covers the value-range upgrade of the static
// memory checker: loop-variant addresses with symbolic trip counts are
// decided from their intervals — proven in bounds (silent), possibly out
// of bounds (warning), or certainly out of bounds (error) — where the
// exact-const path had to stay silent.
func TestIntervalMemCheck(t *testing.T) {
	t.Run("proven-in-bounds", func(t *testing.T) {
		src := `mov #0,a0
L:
mov #8,vl
mov #8,vs
ld.l d_X(a0),v0
add.w #64,a0
lt.w a0,#960
jbrs.t L
halt
.data d_X 2048
`
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ds := verify.Check(p)
		for _, d := range ds {
			if d.Severity != verify.SevInfo {
				t.Errorf("bounded in-bounds stream flagged: %s", d.Render(p))
			}
		}
	})
	t.Run("may-be-out-of-bounds", func(t *testing.T) {
		src := `mov #0,a0
mov #1,s0
L:
mov #64,vl
mov #8,vs
mov s0,v0
st.l v0,d_Y(a0)
add.w #512,a0
lt.w a0,#4096
jbrs.t L
halt
.data d_Y 1024
`
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ds := verify.Check(p)
		if !hasDiag(ds, verify.SevWarning, "may be out of bounds") {
			t.Errorf("missing may-be-out-of-bounds warning:\n%s", renderAll(ds, p))
		}
	})
	t.Run("certainly-out-of-bounds", func(t *testing.T) {
		src := `mov #128,a0
L:
add.w #8,a0
lt.w a0,#256
jbrs.t L
ld.l d_X(a0),s0
halt
.data d_X 64
`
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ds := verify.Check(p)
		if !hasDiag(ds, verify.SevError, "out of bounds for every admitted address") {
			t.Errorf("missing certain-out-of-bounds error:\n%s", renderAll(ds, p))
		}
	})
}

// TestDanglingLabel covers the one corpus case the parser already
// rejects at Parse time (Validate refuses undefined labels), so the
// verify-level diagnostic needs an API-built program.
func TestDanglingLabel(t *testing.T) {
	if _, err := asm.Parse("jmp nowhere\nhalt\n"); err == nil {
		t.Error("Parse accepted a dangling label; Validate gate is gone")
	}
	p := &asm.Program{
		Instrs: []isa.Instr{
			{Op: isa.OpJmp, Ops: []isa.Operand{isa.LabelOp("nowhere")}},
			{Op: isa.OpHalt},
		},
		Labels: map[string]int{},
	}
	ds := verify.Check(p)
	if !hasDiag(ds, verify.SevError, `branch to undefined label "nowhere"`) {
		t.Errorf("missing dangling-label error; got:\n%s", renderAll(ds, p))
	}
}

// TestMustError checks the gate's error shape: errors.As reaches the
// full diagnostic list and the summary names the first error.
func TestMustError(t *testing.T) {
	p, err := asm.Parse("add s0,s1,s2\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	gateErr := verify.Must(p)
	if gateErr == nil {
		t.Fatal("Must accepted a use-before-def program")
	}
	var verr *verify.Error
	if !errors.As(gateErr, &verr) {
		t.Fatalf("Must error is %T, want *verify.Error", gateErr)
	}
	if len(verify.Errors(verr.Diags)) != 2 {
		t.Errorf("gate carries %d errors, want 2:\n%s", len(verify.Errors(verr.Diags)), renderAll(verr.Diags, p))
	}
	if msg := gateErr.Error(); !strings.Contains(msg, "use of s0 before definition") ||
		!strings.Contains(msg, "and 1 more") {
		t.Errorf("gate error summary = %q", msg)
	}
}

// TestCheckOrdering: findings come back sorted by instruction index with
// program-level findings first, deduplicated.
func TestCheckOrdering(t *testing.T) {
	p, err := asm.Parse("mov #4,vl\nld.d d_X,v0\nadd s0,s1,s2\nhalt\n.data d_X 1024\n")
	if err != nil {
		t.Fatal(err)
	}
	ds := verify.Check(p)
	for i := 1; i < len(ds); i++ {
		if ds[i].Instr < ds[i-1].Instr {
			t.Fatalf("findings not sorted by instruction: %v", ds)
		}
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.String()] {
			t.Errorf("duplicate diagnostic %s", d)
		}
		seen[d.String()] = true
	}
}

func hasDiag(ds []verify.Diagnostic, sev verify.Severity, sub string) bool {
	for _, d := range ds {
		if d.Severity == sev && strings.Contains(d.Message, sub) {
			return true
		}
	}
	return false
}

func renderAll(ds []verify.Diagnostic, p *asm.Program) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.Render(p) + "\n")
	}
	if b.Len() == 0 {
		return "  (no diagnostics)\n"
	}
	return b.String()
}
