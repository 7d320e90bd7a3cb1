// Command benchgate guards the simulator, the analytical fast tier and
// the design-space exploration engine against performance regressions.
// It runs the per-kernel benchmarks (BenchmarkLFK, one simulation on a
// fresh simulator per run; BenchmarkFastTierCold, one fast-tier
// prediction on a fresh interpreter per run; and BenchmarkExplore, the
// two-stage grid sweep, every sweep a first sight), writes a
// machine-readable report, and compares against a committed baseline.
//
// Absolute rates vary with hardware, so most gates are on quantities
// that do not: each kernel's allocations per simulation and per
// prediction (deterministic for a given Go release) and the explore
// engine's pruning ratio (points swept per point simulated). Two
// absolute floors ride along — every kernel's sweep must clear 1000 grid
// points per second with at least 10x fewer simulations than an
// exhaustive sweep — plus a relative gate on sweep throughput against
// the committed baseline. A kernel allocating more than its baseline
// allows, a >10% drop in the sweep rate, or a broken floor fails the
// gate.
//
// Usage:
//
//	benchgate                      # run, compare against BENCH_10.json
//	benchgate -update              # run and rewrite the baseline
//	benchgate -count 3             # best-of-3 to damp benchtime=1x noise
//	benchgate -tolerance 0.10     # allowed relative regression
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// KernelBench is one kernel's benchmark outcome.
type KernelBench struct {
	NsPerOp      float64 `json:"ns_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	// PointsPerSec and PruneRatio are reported only by the explore
	// family: grid points swept per second and swept-to-simulated ratio.
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	PruneRatio   float64 `json:"prune_ratio,omitempty"`
}

// Aggregate summarizes a whole pass: total simulated cycles divided by
// total wall time, and summed allocations for one run of every kernel
// (reported; the gate holds each kernel's allocations separately).
type Aggregate struct {
	FastCyclesPerSec float64 `json:"fast_cycles_per_sec"`
	FastAllocs       float64 `json:"fast_allocs_per_sweep"`
	FastTierAllocs   float64 `json:"fast_tier_allocs_per_sweep"`
	// ExplorePointsPerSec is the aggregate sweep throughput (total grid
	// points over total wall time); ExploreMinKernelPointsPerSec the worst
	// kernel, gated against the 1000/sec floor. ExploreMinPruneRatio is
	// the worst swept-to-simulated ratio, gated against the 10x floor.
	ExplorePointsPerSec          float64 `json:"explore_points_per_sec"`
	ExploreMinKernelPointsPerSec float64 `json:"explore_min_kernel_points_per_sec"`
	ExploreMinPruneRatio         float64 `json:"explore_min_prune_ratio"`
}

// exploreFloor is the sweep throughput every kernel must clear: grid
// points evaluated (scored or simulated) per wall-clock second.
const exploreFloor = 1000.0

// pruneFloor is the minimum swept-to-simulated ratio: the two-stage
// sweep must run at least this many times fewer simulations than an
// exhaustive sweep.
const pruneFloor = 10.0

// Report is the BENCH_10.json document.
type Report struct {
	Fast     map[string]KernelBench `json:"fast"`
	FastTier map[string]KernelBench `json:"fasttier"`
	Explore  map[string]KernelBench `json:"explore"`
	// Aggregate holds the machine-neutral gate metrics.
	Aggregate Aggregate `json:"aggregate"`
}

func main() {
	baseline := flag.String("baseline", "BENCH_10.json", "committed baseline to gate against")
	out := flag.String("out", "BENCH_10.json", "where to write this run's report")
	update := flag.Bool("update", false, "rewrite the baseline instead of gating")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative regression")
	count := flag.Int("count", 1, "benchmark repetitions; the best run per kernel is kept")
	dir := flag.String("dir", ".", "module directory containing the benchmarks")
	flag.Parse()

	if err := run(*baseline, *out, *update, *tolerance, *count, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(baseline, out string, update bool, tolerance float64, count int, dir string) error {
	if count < 1 {
		count = 1
	}
	rep, err := measure(count, dir)
	if err != nil {
		return err
	}
	printReport(rep)

	if !update {
		if err := gate(rep, baseline, tolerance); err != nil {
			return err
		}
	}
	if out != "" && (update || out != baseline) {
		if err := writeReport(out, rep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// measure runs the LFK benchmarks and folds the output into a Report,
// keeping the best (highest-rate) run per kernel. The simulation and
// fast-tier benchmarks run at -benchtime 1x: a single full kernel
// execution or prediction, whose allocations the gate holds.
func measure(count int, dir string) (Report, error) {
	simArgs := []string{
		"test", "-run", "^$",
		"-bench", "^(BenchmarkLFK|BenchmarkFastTierCold)$",
		"-benchtime", "1x", "-benchmem",
		"-count", strconv.Itoa(count),
		".",
	}
	// The explore family runs each op as a full 120-point first-sight
	// sweep. 8 sweeps per run keep the timed window long enough (about
	// 30–220 ms per kernel on a 2-core container) that the relative
	// points/sec gate is stable against scheduler noise.
	exploreArgs := []string{
		"test", "-run", "^$",
		"-bench", "^BenchmarkExplore$",
		"-benchtime", "8x", "-benchmem",
		"-count", strconv.Itoa(count),
		".",
	}
	var outBytes []byte
	for _, args := range [][]string{simArgs, exploreArgs} {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return Report{}, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
		}
		outBytes = append(outBytes, out...)
	}
	rep := Report{
		Fast:     map[string]KernelBench{},
		FastTier: map[string]KernelBench{},
		Explore:  map[string]KernelBench{},
	}
	for _, line := range strings.Split(string(outBytes), "\n") {
		name, kb, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		kernel := name[strings.Index(name, "/")+1:]
		var into map[string]KernelBench
		switch {
		case strings.HasPrefix(name, "BenchmarkFastTierCold/"):
			into = rep.FastTier
		case strings.HasPrefix(name, "BenchmarkExplore/"):
			into = rep.Explore
		case strings.HasPrefix(name, "BenchmarkLFK/"):
			into = rep.Fast
		default:
			continue
		}
		// Best run per kernel: highest simulation rate, or — for the fast
		// tier and explore families, which have no cycle rate — lowest
		// wall time.
		prev, seen := into[kernel]
		better := kb.CyclesPerSec > prev.CyclesPerSec
		if kb.CyclesPerSec == 0 && prev.CyclesPerSec == 0 {
			better = kb.NsPerOp < prev.NsPerOp
		}
		if !seen || better {
			into[kernel] = kb
		}
	}
	if len(rep.Fast) == 0 || len(rep.FastTier) == 0 || len(rep.Explore) == 0 {
		return rep, fmt.Errorf("no benchmark lines parsed from go test output:\n%s", outBytes)
	}
	rep.Aggregate = aggregate(rep)
	return rep, nil
}

// parseBenchLine reads one `go test -bench` result line. Values are
// `<number> <unit>` pairs after the iteration count.
func parseBenchLine(line string) (string, KernelBench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", KernelBench{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip -GOMAXPROCS
	}
	var kb KernelBench
	got := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", KernelBench{}, false
		}
		switch f[i+1] {
		case "ns/op":
			kb.NsPerOp = v
			got = true
		case "cycles/sec":
			kb.CyclesPerSec = v
		case "B/op":
			kb.BytesPerOp = v
		case "allocs/op":
			kb.AllocsPerOp = v
		case "points/sec":
			kb.PointsPerSec = v
		case "prune-x":
			kb.PruneRatio = v
		}
	}
	return name, kb, got
}

// aggregate computes whole-sweep rates: per-kernel simulated cycles are
// recovered from rate × time, then totals are divided.
func aggregate(rep Report) Aggregate {
	var a Aggregate
	var cycles, ns float64
	for _, kb := range rep.Fast {
		cycles += kb.CyclesPerSec * kb.NsPerOp / 1e9
		ns += kb.NsPerOp
		a.FastAllocs += kb.AllocsPerOp
	}
	if ns > 0 {
		a.FastCyclesPerSec = cycles / (ns / 1e9)
	}
	for _, kb := range rep.FastTier {
		a.FastTierAllocs += kb.AllocsPerOp
	}
	var explorePoints, exploreNs float64
	for _, kb := range rep.Explore {
		explorePoints += kb.PointsPerSec * kb.NsPerOp / 1e9
		exploreNs += kb.NsPerOp
		if a.ExploreMinKernelPointsPerSec == 0 || kb.PointsPerSec < a.ExploreMinKernelPointsPerSec {
			a.ExploreMinKernelPointsPerSec = kb.PointsPerSec
		}
		if a.ExploreMinPruneRatio == 0 || kb.PruneRatio < a.ExploreMinPruneRatio {
			a.ExploreMinPruneRatio = kb.PruneRatio
		}
	}
	if exploreNs > 0 {
		a.ExplorePointsPerSec = explorePoints / (exploreNs / 1e9)
	}
	return a
}

// gate compares this run against the baseline report.
func gate(rep Report, baseline string, tolerance float64) error {
	raw, err := os.ReadFile(baseline)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("no baseline %s; run with -update to create one", baseline)
		}
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	}
	// Every gate is checked, so one run reports all that failed.
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, fam := range []struct {
		bench     string
		base, got map[string]KernelBench
	}{
		{"BenchmarkLFK", base.Fast, rep.Fast},
		{"BenchmarkFastTierCold", base.FastTier, rep.FastTier},
	} {
		for _, k := range sortedKernels(fam.base) {
			want := fam.base[k].AllocsPerOp
			got, ok := fam.got[k]
			switch {
			case !ok:
				fail("allocation gate: %s/%s did not run", fam.bench, k)
			case want > 0 && got.AllocsPerOp > want*(1+tolerance):
				fail("allocation regression: %s/%s allocates %.0f objects per run, baseline %.0f (+%.0f%% allowed)",
					fam.bench, k, got.AllocsPerOp, want, tolerance*100)
			}
		}
	}
	if rep.Aggregate.ExploreMinKernelPointsPerSec < exploreFloor {
		fail("explore floor broken: worst kernel sweeps only %.0f points/sec (floor %.0f)",
			rep.Aggregate.ExploreMinKernelPointsPerSec, exploreFloor)
	}
	if rep.Aggregate.ExploreMinPruneRatio < pruneFloor {
		fail("explore prune floor broken: worst kernel simulates 1 in %.1f points (floor 1 in %.0f)",
			rep.Aggregate.ExploreMinPruneRatio, pruneFloor)
	}
	if base.Aggregate.ExplorePointsPerSec > 0 {
		expFloor := base.Aggregate.ExplorePointsPerSec * (1 - tolerance)
		if rep.Aggregate.ExplorePointsPerSec < expFloor {
			fail("explore regression: sweep rate %.0f points/sec is below %.0f (baseline %.0f - %.0f%%)",
				rep.Aggregate.ExplorePointsPerSec, expFloor, base.Aggregate.ExplorePointsPerSec, tolerance*100)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	fmt.Printf("gate ok: every kernel within its allocation ceilings (simulation sweep %.0f, baseline %.0f; prediction sweep %.0f, baseline %.0f), explore %.0f points/sec (baseline %.0f; min kernel %.0f, floor %.0f; prune %.0fx)\n",
		rep.Aggregate.FastAllocs, base.Aggregate.FastAllocs,
		rep.Aggregate.FastTierAllocs, base.Aggregate.FastTierAllocs,
		rep.Aggregate.ExplorePointsPerSec, base.Aggregate.ExplorePointsPerSec,
		rep.Aggregate.ExploreMinKernelPointsPerSec, exploreFloor,
		rep.Aggregate.ExploreMinPruneRatio)
	return nil
}

func writeReport(path string, rep Report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func printReport(rep Report) {
	fmt.Printf("%-8s %15s %12s %12s %12s %12s %9s\n",
		"kernel", "sim cyc/s", "allocs/op", "tier ns/op", "tier allocs", "explore p/s", "prune-x")
	for _, k := range sortedKernels(rep.Fast) {
		f, t, e := rep.Fast[k], rep.FastTier[k], rep.Explore[k]
		fmt.Printf("%-8s %15.0f %12.0f %12.0f %12.0f %12.0f %8.0fx\n",
			k, f.CyclesPerSec, f.AllocsPerOp, t.NsPerOp, t.AllocsPerOp, e.PointsPerSec, e.PruneRatio)
	}
	a := rep.Aggregate
	fmt.Printf("%-8s %15.0f %12.0f %12s %12.0f %12.0f %8.0fx\n",
		"all", a.FastCyclesPerSec, a.FastAllocs, "", a.FastTierAllocs,
		a.ExplorePointsPerSec, a.ExploreMinPruneRatio)
}

// sortedKernels lists a family's kernels in kernel order.
func sortedKernels(m map[string]KernelBench) []string {
	kernels := make([]string, 0, len(m))
	for k := range m {
		kernels = append(kernels, k)
	}
	sort.Slice(kernels, func(i, j int) bool {
		return kernelOrd(kernels[i]) < kernelOrd(kernels[j])
	})
	return kernels
}

// kernelOrd sorts lfk2 before lfk10.
func kernelOrd(name string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(name, "lfk"))
	if err != nil {
		return 1 << 20
	}
	return n
}
