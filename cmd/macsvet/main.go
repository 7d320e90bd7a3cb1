// Command macsvet runs the repo's custom static analyzers (see
// internal/macsvet): exhaustive switches over marked enums, the
// opcode/timing-table invariant of internal/isa, the dependence-edge
// taxonomy handled exhaustively in the critical-path solver, no naked
// panics in packages reachable from service request handling, Must*
// panicking helpers confined to test files, and every pipeline span
// ended in the statement list that started it.
//
// Exit codes: 0 clean, 1 findings, 2 analysis failure. Every finding
// prints with a real file:line:col anchor.
//
// Usage:
//
//	macsvet [./...]
//
// It always analyzes the whole module; the optional argument names the
// module root (a trailing /... is accepted and ignored, so the familiar
// `go run ./cmd/macsvet ./...` invocation works). Findings print one per
// line as file:line:col: rule: message; any finding exits non-zero.
package main

import (
	"fmt"
	"os"
	"strings"

	"macs/internal/macsvet"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = strings.TrimSuffix(os.Args[1], "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	}
	findings, err := macsvet.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macsvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "macsvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
