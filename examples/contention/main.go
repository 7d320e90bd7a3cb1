// Contention: the paper's §4.2 multi-process study. Four CPUs share the
// 32-bank memory; four copies of the same executable fall into lockstep
// (5-10% degradation) while four different programs contend much harder
// (one access per 56-64 ns instead of 40 ns). The derived slowdown then
// drives the Figure 3 "multiple process" bars for every kernel.
package main

import (
	"fmt"
	"log"

	"macs/internal/experiments"
	"macs/internal/mem"
	"macs/internal/report"
)

func main() {
	cfg := mem.DefaultConfig()

	fmt.Println("Memory contention on the shared 32-bank memory")
	fmt.Println("----------------------------------------------")
	for _, streams := range []int{1, 2, 3, 4} {
		lock := mem.ContentionSlowdown(cfg, streams, false, 4000)
		diff := mem.ContentionSlowdown(cfg, streams, true, 4000)
		fmt.Printf("  %d CPUs: lockstep (same executable) %.2fx, different programs %.2fx\n",
			streams, lock, diff)
	}
	slow := mem.ContentionSlowdown(cfg, 4, true, 4000)
	fmt.Printf("\nEffective access interval under full load: %.1f ns (paper: 56-64 ns; peak 40 ns)\n\n",
		40*slow)

	ecfg := experiments.Default()
	single, err := experiments.RunAll(ecfg)
	if err != nil {
		log.Fatal(err)
	}
	rows, used, err := experiments.RunFigure3(ecfg, single)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Figure3(rows, used))
}
