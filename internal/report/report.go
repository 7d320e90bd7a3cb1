// Package report renders experiment results as fixed-width text tables
// and simple bar charts, mirroring the layout of the paper's tables.
package report

import (
	"fmt"
	"strings"

	"macs/internal/calib"
	"macs/internal/experiments"
	"macs/internal/isa"
	"macs/internal/vm"
)

// Render formats a header row and data rows as a fixed-width table.
func Render(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Table1 renders calibration results in the layout of the paper's Table 1.
func Table1(results []calib.Result) string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Op.String(), r.Format,
			fmt.Sprintf("%d", r.Fit.X), fmt.Sprintf("%d", r.Fit.Y), f2(r.Fit.Z), fmt.Sprintf("%d", r.Fit.B),
			fmt.Sprintf("%d", r.Spec.X), fmt.Sprintf("%d", r.Spec.Y), f2(r.Spec.Z), fmt.Sprintf("%d", r.Spec.B),
		})
	}
	return Render(
		fmt.Sprintf("Table 1: Vector Instruction Execution Times (VL = %d), calibrated vs specified", isa.VLMax),
		[]string{"instr", "format", "X", "Y", "Z", "B", "specX", "specY", "specZ", "specB"},
		rows)
}

// Table2 renders the LFK workload table.
func Table2(rows []experiments.Table2Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			fmt.Sprintf("%d", r.MA.FA), fmt.Sprintf("%d", r.MA.FM),
			fmt.Sprintf("%d", r.MA.Loads), fmt.Sprintf("%d", r.MA.Stores),
			fmt.Sprintf("%d", r.MAC.FA), fmt.Sprintf("%d", r.MAC.FM),
			fmt.Sprintf("%d", r.MAC.Loads), fmt.Sprintf("%d", r.MAC.Stores),
		})
	}
	return Render("Table 2: LFK Work Load (MA counts | MAC counts)",
		[]string{"LFK", "fa", "fm", "l", "s", "fa'", "fm'", "l'", "s'"}, out)
}

// Table3 renders the performance-bounds table (CPL).
func Table3(rows []experiments.Table3Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			f3(r.TM), f3(r.TMp), f3(r.TMACSm),
			f3(r.TF), f3(r.TFp), f3(r.TMACSf),
			f3(r.TMA), f3(r.TMAC), f3(r.TMACS),
		})
	}
	return Render("Table 3: Performance Bounds (CPL)",
		[]string{"LFK", "t_m", "t_m'", "t_MACS^m", "t_f", "t_f'", "t_MACS^f", "t_MA", "t_MAC", "t_MACS"}, out)
}

// Table4 renders the bounds-vs-measured comparison (CPF) with the paper's
// published values alongside.
func Table4(t experiments.Comparison) string {
	out := make([][]string, 0, len(t.Rows)+2)
	for _, r := range t.Rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			f3(r.TMA), f3(r.TMAC), f3(r.TMACS), f3(r.TP),
			pct(r.PctMA), pct(r.PctMAC), pct(r.PctMACS),
			f3(r.Paper.TMA), f3(r.Paper.TMACS), f3(r.Paper.TP),
		})
	}
	out = append(out, []string{
		"AVG", f3(t.Avg[0]), f3(t.Avg[1]), f3(t.Avg[2]), f3(t.Avg[3]),
		"", "", "", "1.080", "1.352", "1.900",
	})
	out = append(out, []string{
		"MFLOPS", f2(t.MFLOPS[0]), f2(t.MFLOPS[1]), f2(t.MFLOPS[2]), f2(t.MFLOPS[3]),
		"", "", "", "23.15", "17.79", "13.16",
	})
	return Render("Table 4: Comparison of Bounds with Measured Performance (CPF)",
		[]string{"LFK", "t_MA", "t_MAC", "t_MACS", "t_p", "%MA", "%MAC", "%MACS",
			"paper t_MA", "paper t_MACS", "paper t_p"}, out)
}

// Table5 renders the MACS bounds and A/X measurements (CPL).
func Table5(rows []experiments.Table5Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			f2(r.TP), f2(r.TMACS),
			f2(r.TX), f2(r.TMACSf),
			f2(r.TA), f2(r.TMACSm),
		})
	}
	return Render("Table 5: MACS Bounds and A/X Measurements (CPL)",
		[]string{"LFK", "t_p", "t_MACS", "t_x", "t_MACS^f", "t_a", "t_MACS^m"}, out)
}

// Figure1 renders the per-kernel hierarchy of bounds and measurements.
func Figure1(hs []experiments.Hierarchy) string {
	out := make([][]string, 0, len(hs))
	for _, h := range hs {
		tcp := "-"
		if h.TCP > 0 {
			tcp = f2(h.TCP)
		}
		out = append(out, []string{
			fmt.Sprintf("%d", h.ID),
			f2(h.TMA), f2(h.TMAC), f2(h.TMACS), tcp,
			f2(h.TMACSf), f2(h.TX), f2(h.TMACSm), f2(h.TA), f2(h.TP),
		})
	}
	return Render("Figure 1: Hierarchy of Performance Models and Measurements (CPL)",
		[]string{"LFK", "t_MA", "t_MAC", "t_MACS", "t_CP", "t_MACS^f", "t_x", "t_MACS^m", "t_a", "t_p"}, out)
}

// Figure2 renders the chaining walkthrough timeline.
func Figure2(fig experiments.Figure2) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Chaining with Perfect Tailgating\n")
	fmt.Fprintf(&b, "chained ld/add/mul chime: %d cycles (paper: 162)\n", fig.ChainedCycles)
	fmt.Fprintf(&b, "without chaining:         %d cycles (paper: 422)\n", fig.UnchainedCycles)
	fmt.Fprintf(&b, "steady-state chime:       %.2f cycles (paper Eq. 13: VL + sum B = 132)\n\n", fig.SteadyChime)
	for _, e := range fig.Events {
		fmt.Fprintf(&b, "  chime %d  %-24s start=%-4d first=%-4d finish=%d\n",
			e.Chime, e.Instr.String(), e.Start, e.FirstResult, e.Finish)
	}
	b.WriteString("\n")
	b.WriteString(Timeline(fig.Events, 64))
	return b.String()
}

// Timeline draws vector instruction activity as an ASCII chart in the
// style of the paper's Figure 2: '.' for startup/fill, '#' while results
// stream out.
func Timeline(events []vm.TraceEvent, width int) string {
	if len(events) == 0 {
		return ""
	}
	t0, t1 := events[0].Start, events[0].Finish
	for _, e := range events {
		if e.Start < t0 {
			t0 = e.Start
		}
		if e.Finish > t1 {
			t1 = e.Finish
		}
	}
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	col := func(t int64) int {
		c := int((t - t0) * int64(width) / span)
		if c >= width {
			c = width - 1
		}
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d ('.' pipe fill, '#' results streaming)\n", t0, t1)
	for _, e := range events {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for c := col(e.Start); c <= col(e.FirstResult); c++ {
			row[c] = '.'
		}
		for c := col(e.FirstResult); c <= col(e.Finish); c++ {
			row[c] = '#'
		}
		fmt.Fprintf(&b, "%-22s |%s|\n", e.Instr.String(), row)
	}
	return b.String()
}

// AttributionTable renders a run's stall-attribution ledger as a table:
// one row per cycle class (issue plus each nonzero stall cause), one
// column per lane (ASU and the three VP pipes), a lane-summed total and
// its share of all accounted lane-cycles. With a conserved ledger every
// column sums to Stats.Cycles.
func AttributionTable(st vm.Stats) string {
	lanes := []int{vm.LaneASU, int(isa.PipeLoadStore), int(isa.PipeAdd), int(isa.PipeMul)}
	grand := float64(int64(vm.NumLanes) * st.Cycles)
	row := func(name string, get func(l vm.LaneAttribution) int64) []string {
		cells := []string{name}
		var sum int64
		for _, lane := range lanes {
			v := get(st.Attr.Lanes[lane])
			sum += v
			cells = append(cells, fmt.Sprintf("%d", v))
		}
		cells = append(cells, fmt.Sprintf("%d", sum))
		if grand > 0 {
			cells = append(cells, pct(float64(sum)/grand))
		} else {
			cells = append(cells, pct(0))
		}
		return cells
	}
	rows := [][]string{row("issue", func(l vm.LaneAttribution) int64 { return l.Issue })}
	for _, c := range vm.StallCauses() {
		c := c
		if st.Attr.Cause(c) == 0 {
			continue
		}
		rows = append(rows, row(c.String(), func(l vm.LaneAttribution) int64 { return l.Stalls[c] }))
	}
	rows = append(rows, row("total", func(l vm.LaneAttribution) int64 { return l.Total() }))
	headers := []string{"cycles"}
	for _, lane := range lanes {
		headers = append(headers, vm.LaneName(lane))
	}
	headers = append(headers, "all lanes", "share")
	return Render(fmt.Sprintf("Stall attribution (%d cycles; per-lane issue + stalls = total)", st.Cycles),
		headers, rows)
}

// Extended renders the extension table: plain vs extended vs
// decomposition-aware bounds against measured CPL.
func Extended(rows []experiments.ExtendedRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			f3(r.TMACS), f3(r.TPlus), f3(r.TD), f3(r.TP),
			pct(r.PctMACS), pct(r.PctPlus),
		})
	}
	return Render("Extension: plain vs extended (t_MACS+) vs decomposition (t_MACSD) bounds (CPL)",
		[]string{"LFK", "t_MACS", "t_MACS+", "t_MACSD", "t_p", "%MACS", "%MACS+"}, out)
}

// Cluster renders the four-CPU co-simulation results.
func Cluster(rows []experiments.ClusterRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.ID),
			f3(r.SoloCPL), f3(r.ClusterCPL),
			fmt.Sprintf("%.1f%%", 100*(r.Degradation-1)),
		})
	}
	return Render("Co-simulation: four copies of each kernel on the shared 32 banks (paper §4.2: same-executable lockstep costs 5-10%)",
		[]string{"LFK", "solo CPL", "4-copy CPL", "degradation"}, out)
}

// MachinesTable renders the cross-machine comparison.
func MachinesTable(rows []experiments.MachineRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		// A kernel output that misses its reference fails the
		// comparison, so every row it returns validated.
		out = append(out, []string{
			r.Name, f3(r.AvgMACSCPF), f3(r.AvgMeasuredCPF),
			f2(r.BoundMFLOPS), f2(r.MFLOPS), "yes",
		})
	}
	return Render("Machine comparison: the MACS methodology across vector machines (10-kernel suite)",
		[]string{"machine", "avg t_MACS CPF", "avg t_p CPF", "bound MFLOPS", "MFLOPS", "validated"}, out)
}

// Figure3 renders the bounds-vs-measured bars per kernel as an ASCII
// chart (CPF; longer bar = slower).
func Figure3(rows []experiments.Figure3Row, slowdown float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Bounds vs Measured CPF (multi-process memory slowdown %.2fx)\n", slowdown)
	maxV := 0.0
	for _, r := range rows {
		if r.Multi > maxV {
			maxV = r.Multi
		}
	}
	bar := func(v float64) string {
		n := int(v / maxV * 48)
		return strings.Repeat("#", n)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "LFK%-2d\n", r.ID)
		fmt.Fprintf(&b, "  MA     %6.3f |%s\n", r.TMA, bar(r.TMA))
		fmt.Fprintf(&b, "  MAC    %6.3f |%s\n", r.TMAC, bar(r.TMAC))
		fmt.Fprintf(&b, "  MACS   %6.3f |%s\n", r.TMACS, bar(r.TMACS))
		fmt.Fprintf(&b, "  single %6.3f |%s\n", r.Single, bar(r.Single))
		fmt.Fprintf(&b, "  multi  %6.3f |%s\n", r.Multi, bar(r.Multi))
	}
	return b.String()
}
