package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"macs/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/lfkbench.golden from the current output")

const golden = "testdata/lfkbench.golden"

// TestGolden pins every paper table and figure byte for byte: a flagless
// run must print testdata/lfkbench.golden, and so must the same run
// fanned out over all cores, and the one-table and one-figure runs
// concatenated in the order a flagless run prints them. A change that
// moves a paper number fails here until the golden is rewritten with
// `go test ./cmd/lfkbench -update` and the move is reviewed.
func TestGolden(t *testing.T) {
	var all bytes.Buffer
	if err := run(&all, experiments.Default(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "flagless run", all.String(), string(want))

	wide := experiments.Default()
	wide.Parallel = -1
	var par bytes.Buffer
	if err := run(&par, wide, 0, 0); err != nil {
		t.Fatal(err)
	}
	same(t, "run with one worker per core", par.String(), string(want))

	var parts bytes.Buffer
	for _, sel := range [][2]int{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {0, 1}, {0, 2}, {0, 3}, {6, 0}, {7, 0}, {8, 0}} {
		if err := run(&parts, experiments.Default(), sel[0], sel[1]); err != nil {
			t.Fatalf("table %d figure %d: %v", sel[0], sel[1], err)
		}
	}
	same(t, "one-table and one-figure runs", parts.String(), string(want))
}

// same reports the first line where got departs from the golden.
func same(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s departs from %s at line %d:\n got: %q\nwant: %q", what, golden, i+1, gl, wl)
			return
		}
	}
}
