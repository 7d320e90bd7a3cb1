package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const saxpySrc = `
PROGRAM SAXPY
REAL X(2048), Y(2048), A
INTEGER N, K
DO K = 1, N
  Y(K) = Y(K) + A*X(K)
ENDDO
END
`

func writeKernel(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "saxpy.f")
	if err := os.WriteFile(path, []byte(saxpySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdCompile(t *testing.T) {
	var out strings.Builder
	if err := cmdCompile(&out, []string{writeKernel(t)}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		".data d_X", // data segment for the arrays
		".data d_Y",
		"mul.d", // the A*X multiply, vectorized
		"add.d",
		"mov s0,vl", // strip-mined vector length setup
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compile output missing %q\n%s", want, got)
		}
	}
}

func TestCmdCheck(t *testing.T) {
	var out strings.Builder
	if err := cmdCheck(&out, []string{writeKernel(t)}); err != nil {
		t.Fatalf("check on compiled SAXPY failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no errors") {
		t.Errorf("check output missing summary line:\n%s", out.String())
	}
}

// TestCmdBound: bound prints the bounds without running the kernel, so
// SAXPY over arrays too large for the simulator's memory bounds exactly
// as SAXPY over 2048 elements does.
func TestCmdBound(t *testing.T) {
	huge := filepath.Join(t.TempDir(), "saxpy3m.f")
	if err := os.WriteFile(huge, []byte(strings.ReplaceAll(saxpySrc, "2048", "3000000")), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for _, path := range []string{writeKernel(t), huge} {
		var out strings.Builder
		if err := cmdBound(&out, []string{path}); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		got := out.String()
		for _, want := range []string{
			"MA workload:",
			"MAC workload:",
			"t_MACS",
			"fa=1 fm=1 l=2 s=1", // SAXPY: one add, one multiply, two loads, one store
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s: bound output missing %q\n%s", filepath.Base(path), want, got)
			}
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Errorf("%s: bound output\n%s\nwant the 2048-element kernel's\n%s", filepath.Base(path), got, first)
		}
	}
}

func TestCmdCompileMissingFile(t *testing.T) {
	var out strings.Builder
	if err := cmdCompile(&out, nil); err == nil {
		t.Fatal("cmdCompile with no args succeeded; want error")
	}
	if err := cmdCompile(&out, []string{"/nonexistent/kernel.f"}); err == nil {
		t.Fatal("cmdCompile with missing file succeeded; want error")
	}
}

func TestCmdAttr(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := cmdAttr(&out, []string{writeKernel(t), "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Stall attribution",
		"issue",
		"asu",
		"load/store",
		"total",
		"wrote",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("attr output missing %q\n%s", want, got)
		}
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) {
		t.Errorf("trace file is not Chrome trace_event JSON:\n%.200s", b)
	}
}

func TestCmdAttrRingOnly(t *testing.T) {
	var out strings.Builder
	if err := cmdAttr(&out, []string{writeKernel(t), "-ring", "16"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Stall attribution") {
		t.Errorf("attr output missing table:\n%s", out.String())
	}
}

// TestCmdInputMistake: a misspelled -ints name stops analyze and explore
// with the text macs.Inputs gives every surface, before any run.
func TestCmdInputMistake(t *testing.T) {
	path := writeKernel(t)
	for _, c := range []struct{ ints, want string }{
		{"M=64", `inputs: unknown variable "M"`},
		{"X=3", `inputs: variable "X" is declared a REAL array, not an INTEGER scalar`},
	} {
		var out strings.Builder
		if err := cmdAnalyze(&out, []string{path, "-n", "64", "-ints", c.ints}); err == nil || err.Error() != c.want {
			t.Errorf("analyze -ints %s: %v, want %q", c.ints, err, c.want)
		}
		if err := cmdExplore(&out, []string{path, "-n", "64", "-ints", c.ints, "-axis", "banks=16,32"}); err == nil || !strings.HasSuffix(err.Error(), ": "+c.want) {
			t.Errorf("explore -ints %s: %v, want one ending in %q", c.ints, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("refused runs printed:\n%s", out.String())
		}
	}
}
