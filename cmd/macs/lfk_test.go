package main

import (
	"fmt"
	"strings"
	"testing"

	"macs/internal/experiments"
)

// TestCmdLFKExtendedBoundMatchesTable6 checks that `macs lfk N` prints
// the same t_MACS+ as the extension table (`lfkbench -table 6`) for every
// kernel: both price the kernel's own loop shape.
func TestCmdLFKExtendedBoundMatchesTable6(t *testing.T) {
	cfg := experiments.Default()
	rs, err := experiments.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := experiments.Extended(rs, cfg.VM.Rules)
	if len(rows) != 10 {
		t.Fatalf("extension table has %d rows, want 10", len(rows))
	}
	for _, row := range rows {
		var out strings.Builder
		if err := cmdLFK(&out, []string{fmt.Sprint(row.ID)}); err != nil {
			t.Fatalf("lfk %d: %v", row.ID, err)
		}
		want := fmt.Sprintf("  t_MACS+ = %7.3f CPL", row.TPlus)
		var got string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "  t_MACS+ = ") {
				got = line
			}
		}
		if !strings.HasPrefix(got, want) {
			t.Errorf("lfk %d: printed %q, table 6 has %q", row.ID, got, want)
		}
	}
}
