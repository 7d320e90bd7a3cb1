// Command lfkbench regenerates the tables and figures of the paper's
// evaluation (Boyd & Davidson, ISCA 1993) on the simulated Convex C-240.
//
// Usage:
//
//	lfkbench              # everything
//	lfkbench -table 4     # one table (1-8)
//	lfkbench -figure 3    # one figure (1-3)
//	lfkbench -parallel 0  # fan each sweep out over all cores
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"macs"
	"macs/internal/experiments"
	"macs/internal/report"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-8; 6 extension, 7 co-simulation, 8 machines); 0 = all")
	figure := flag.Int("figure", 0, "regenerate one figure (1-3); 0 = all")
	parallel := flag.Int("parallel", 1, "kernels simulated concurrently per sweep; 0 = one per core")
	flag.Parse()

	cfg := experiments.Default()
	cfg.Parallel = *parallel
	if *parallel == 0 {
		cfg.Parallel = -1 // experiments: negative = one worker per core
	}
	if err := run(os.Stdout, cfg, *table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "lfkbench:", err)
		os.Exit(1)
	}
}

// run writes the selected tables and figures (all of them when table and
// figure are both 0) to w. Every table and figure of the case study is a
// view of one run of the suite, taken once.
func run(w io.Writer, cfg experiments.Config, table, figure int) error {
	all := table == 0 && figure == 0
	var rs []macs.KernelResult
	if all || (table >= 2 && table <= 7) || figure == 1 || figure == 3 {
		var err error
		if rs, err = experiments.RunAll(cfg); err != nil {
			return err
		}
	}
	if all || table == 1 {
		res, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table1(res))
	}
	if all || table == 2 {
		fmt.Fprintln(w, report.Table2(experiments.Table2(rs)))
	}
	if all || table == 3 {
		fmt.Fprintln(w, report.Table3(experiments.Table3(rs)))
	}
	if all || table == 4 {
		fmt.Fprintln(w, report.Table4(experiments.Table4(rs)))
	}
	if all || table == 5 {
		fmt.Fprintln(w, report.Table5(experiments.Table5(rs)))
	}
	if all || figure == 1 {
		fmt.Fprintln(w, report.Figure1(experiments.Figure1(rs)))
	}
	if all || figure == 2 {
		fig, err := experiments.RunFigure2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Figure2(fig))
	}
	if all || figure == 3 {
		rows, slow, err := experiments.RunFigure3(cfg, rs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Figure3(rows, slow))
	}
	if all || table == 6 {
		fmt.Fprintln(w, report.Extended(experiments.Extended(rs, cfg.VM.Rules)))
	}
	if all || table == 7 {
		rows, err := experiments.RunClusterContention(cfg, rs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Cluster(rows))
	}
	if all || table == 8 {
		rows, err := experiments.RunMachineComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.MachinesTable(rows))
	}
	return nil
}
