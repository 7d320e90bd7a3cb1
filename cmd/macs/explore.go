package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"macs/internal/explore"
	"macs/internal/lfk"
	"macs/internal/report"
	"macs/internal/vm"
)

// axisFlags collects repeatable -axis param=v1,v2,... flags.
type axisFlags []explore.Axis

func (a *axisFlags) String() string { return fmt.Sprintf("%v", []explore.Axis(*a)) }

func (a *axisFlags) Set(s string) error {
	name, vals, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("bad -axis %q (want param=v1,v2,...)", s)
	}
	ax := explore.Axis{Param: strings.TrimSpace(name)}
	for _, f := range strings.Split(vals, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad -axis value %q: %v", f, err)
		}
		ax.Values = append(ax.Values, v)
	}
	*a = append(*a, ax)
	return nil
}

// cmdExplore sweeps a machine-parameter grid over one or more kernels:
// compile once, fast-tier score every grid point, simulate only the top
// fraction, print the ranked table (and optionally the winner's stall
// attribution).
func cmdExplore(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	gridFile := fs.String("grid", "", "JSON grid spec file {\"base\":{...},\"axes\":[{\"param\":...,\"values\":[...]}]}")
	var axes axisFlags
	fs.Var(&axes, "axis", "swept parameter, e.g. -axis banks=16,32,64 (repeatable; see -params)")
	listParams := fs.Bool("params", false, "list the sweepable parameters and exit")
	lfkSel := fs.String("lfk", "", "sweep a case-study kernel: an id (1-12) or \"all\"")
	n := fs.Int64("n", 0, "inner-loop iterations for CPL conversion (ignored with -lfk)")
	ints := fs.String("ints", "", "integer inputs to prime, e.g. N=1001 (ignored with -lfk)")
	top := fs.Float64("top", 0, "fraction of points promoted to exact simulation (0 takes the default 5%)")
	workers := fs.Int("workers", 0, "sweep concurrency (0 uses all cores)")
	losers := fs.Int("losers", 3, "pruned points to show under the survivors")
	attr := fs.Bool("attr", false, "print the winner's per-lane stall attribution")
	var file string
	if len(args) > 0 && args[0][0] != '-' {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listParams {
		for _, line := range explore.Params() {
			fmt.Fprintln(w, line)
		}
		return nil
	}

	var grid explore.Grid
	if *gridFile != "" {
		b, err := os.ReadFile(*gridFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &grid); err != nil {
			return fmt.Errorf("grid spec %s: %w", *gridFile, err)
		}
	}
	grid.Axes = append(grid.Axes, axes...)

	eng, err := explore.New(grid, explore.Options{TopFrac: *top, Workers: *workers})
	if err != nil {
		return err
	}

	ref := grid.Base
	if ref == (vm.Machine{}) {
		ref = vm.DefaultMachine()
	}

	var reqs []explore.Request
	switch {
	case *lfkSel != "":
		var kernels []*lfk.Kernel
		if *lfkSel == "all" {
			kernels = lfk.All()
		} else {
			id, err := strconv.Atoi(*lfkSel)
			if err != nil {
				return fmt.Errorf("bad -lfk %q", *lfkSel)
			}
			k, err := lfk.ByID(id)
			if err != nil {
				return err
			}
			kernels = []*lfk.Kernel{k}
		}
		for _, k := range kernels {
			reqs = append(reqs, explore.Request{
				Name:       fmt.Sprintf("lfk%d (%s)", k.ID, k.Name),
				Source:     k.Source,
				Iterations: int64(k.Elements),
				Inputs:     k.Inputs,
			})
		}
	case file != "":
		src, err := readSource([]string{file})
		if err != nil {
			return err
		}
		in, err := parseInputs(*ints)
		if err != nil {
			return err
		}
		reqs = append(reqs, explore.Request{Name: file, Source: src, Iterations: *n, Inputs: in})
	default:
		return fmt.Errorf("missing kernel: give a source file or -lfk")
	}

	for i, req := range reqs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		sw, err := eng.Sweep(context.Background(), req)
		if err != nil {
			return fmt.Errorf("%s: %w", req.Name, err)
		}
		fmt.Fprint(w, report.ExploreTable(sw, ref, *losers))
		if *attr {
			best := sw.Best()
			if best.Stats != nil {
				fmt.Fprintf(w, "\nwinner %s:\n", report.MachineLabel(best.Machine, ref))
				fmt.Fprint(w, report.AttributionTable(*best.Stats))
			}
		}
	}
	return nil
}
