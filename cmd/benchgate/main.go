// Command benchgate guards the simulation engine's fast path, the
// analytical fast tier and the design-space exploration engine against
// performance regressions. It runs the per-kernel benchmarks
// (BenchmarkLFK, the pooled/memoized simulation path; BenchmarkLFKNaive,
// the fresh-simulator reference; BenchmarkFastTier, repeated fast-tier
// predictions answered by the prediction memo; and BenchmarkExplore, the
// two-stage grid sweep), writes a
// machine-readable report, and compares against a committed baseline.
//
// Absolute rates vary with hardware, so most gates are on
// machine-neutral quantities measured in the same process: the
// fast/naive simulation speedup ratio, the fast path's allocations per
// run, the memoized fast tier's speedup over pooled simulation, and the
// explore engine's pruning ratio (points swept per point simulated). Two
// absolute floors ride along — every kernel's memo hit must answer at
// least 100x faster than it simulates (a first-sight prediction costs
// about one simulation; see BenchmarkFastTierCold), and every kernel's
// sweep must clear 1000
// grid points per second with at least 10x fewer simulations than an
// exhaustive sweep — plus a relative gate on sweep throughput against
// the committed baseline. A >10% drop in a gated ratio or rate,
// allocation growth beyond tolerance, or a broken floor fails the gate.
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
// total wall time, and summed allocations for one run of every kernel.
type Aggregate struct {
	FastCyclesPerSec  float64 `json:"fast_cycles_per_sec"`
	NaiveCyclesPerSec float64 `json:"naive_cycles_per_sec"`
	// Speedup is the machine-neutral gate metric: fast aggregate rate
	// over naive aggregate rate, both measured in this process.
	Speedup     float64 `json:"speedup"`
	FastAllocs  float64 `json:"fast_allocs_per_sweep"`
	NaiveAllocs float64 `json:"naive_allocs_per_sweep"`
	// FastTierSpeedup is the whole-sweep ratio of pooled-simulation time
	// to fast-tier prediction time; FastTierMinKernelSpeedup is the worst
	// per-kernel ratio, gated against the 100x floor.
	FastTierSpeedup          float64 `json:"fast_tier_speedup"`
	FastTierMinKernelSpeedup float64 `json:"fast_tier_min_kernel_speedup"`
	FastTierAllocs           float64 `json:"fast_tier_allocs_per_sweep"`
	// ExplorePointsPerSec is the aggregate sweep throughput (total grid
	// points over total wall time); ExploreMinKernelPointsPerSec the worst
	// kernel, gated against the 1000/sec floor. ExploreMinPruneRatio is
	// the worst swept-to-simulated ratio, gated against the 10x floor.
	ExplorePointsPerSec          float64 `json:"explore_points_per_sec"`
	ExploreMinKernelPointsPerSec float64 `json:"explore_min_kernel_points_per_sec"`
	ExploreMinPruneRatio         float64 `json:"explore_min_prune_ratio"`
}

// fastTierFloor is the per-kernel speedup a fast-tier memo hit must keep
// over pooled simulation: each LFK's repeated prediction must answer at
// least this many times faster than it simulates.
const fastTierFloor = 100.0

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
	Naive    map[string]KernelBench `json:"naive"`
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
// keeping the best (highest-rate) run per kernel. The simulation
// benchmarks run at -benchtime 1x (a single full kernel execution);
// the fast-tier family runs in a second invocation at 1000x so each
// op is a steady-state memo hit rather than a single timer read — at
// b.N=1 the ~600ns monotonic-clock overhead would triple the ~300ns
// serving cost.
func measure(count int, dir string) (Report, error) {
	simArgs := []string{
		"test", "-run", "^$",
		"-bench", "^(BenchmarkLFK|BenchmarkLFKNaive)$",
		"-benchtime", "1x", "-benchmem",
		"-count", strconv.Itoa(count),
		".",
	}
	tierArgs := []string{
		"test", "-run", "^$",
		"-bench", "^BenchmarkFastTier$",
		"-benchtime", "1000x", "-benchmem",
		"-count", strconv.Itoa(count),
		".",
	}
	// The explore family runs each op as a full 120-point sweep; the
	// benchmark warms per-kernel evaluator state with an untimed sweep
	// first, so this measures the serving steady state. 8 sweeps per run
	// keeps the timed window long enough (hundreds of ms per kernel) that
	// the relative points/sec gate is stable against scheduler noise.
	exploreArgs := []string{
		"test", "-run", "^$",
		"-bench", "^BenchmarkExplore$",
		"-benchtime", "8x", "-benchmem",
		"-count", strconv.Itoa(count),
		".",
	}
	var outBytes []byte
	for _, args := range [][]string{simArgs, tierArgs, exploreArgs} {
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
		Naive:    map[string]KernelBench{},
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
		case strings.HasPrefix(name, "BenchmarkLFKNaive/"):
			into = rep.Naive
		case strings.HasPrefix(name, "BenchmarkFastTier/"):
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
	if len(rep.Fast) == 0 || len(rep.Naive) == 0 || len(rep.FastTier) == 0 || len(rep.Explore) == 0 {
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
	rate := func(m map[string]KernelBench) (cps, allocs float64) {
		var cycles, ns float64
		for _, kb := range m {
			cycles += kb.CyclesPerSec * kb.NsPerOp / 1e9
			ns += kb.NsPerOp
			allocs += kb.AllocsPerOp
		}
		if ns == 0 {
			return 0, allocs
		}
		return cycles / (ns / 1e9), allocs
	}
	var a Aggregate
	a.FastCyclesPerSec, a.FastAllocs = rate(rep.Fast)
	a.NaiveCyclesPerSec, a.NaiveAllocs = rate(rep.Naive)
	if a.NaiveCyclesPerSec > 0 {
		a.Speedup = a.FastCyclesPerSec / a.NaiveCyclesPerSec
	}
	var simNs, tierNs float64
	for kernel, sim := range rep.Fast {
		tier, ok := rep.FastTier[kernel]
		if !ok || tier.NsPerOp <= 0 {
			continue
		}
		simNs += sim.NsPerOp
		tierNs += tier.NsPerOp
		a.FastTierAllocs += tier.AllocsPerOp
		sp := sim.NsPerOp / tier.NsPerOp
		if a.FastTierMinKernelSpeedup == 0 || sp < a.FastTierMinKernelSpeedup {
			a.FastTierMinKernelSpeedup = sp
		}
	}
	if tierNs > 0 {
		a.FastTierSpeedup = simNs / tierNs
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
	floor := base.Aggregate.Speedup * (1 - tolerance)
	if rep.Aggregate.Speedup < floor {
		return fmt.Errorf("sim-rate regression: fast/naive speedup %.2fx is below %.2fx (baseline %.2fx - %.0f%%)",
			rep.Aggregate.Speedup, floor, base.Aggregate.Speedup, tolerance*100)
	}
	ceil := base.Aggregate.FastAllocs * (1 + tolerance)
	if base.Aggregate.FastAllocs > 0 && rep.Aggregate.FastAllocs > ceil {
		return fmt.Errorf("allocation regression: fast sweep allocates %.0f objects, baseline %.0f (+%.0f%% allowed)",
			rep.Aggregate.FastAllocs, base.Aggregate.FastAllocs, tolerance*100)
	}
	if rep.Aggregate.FastTierMinKernelSpeedup < fastTierFloor {
		return fmt.Errorf("fast-tier floor broken: worst kernel predicts only %.0fx faster than pooled simulation (floor %.0fx)",
			rep.Aggregate.FastTierMinKernelSpeedup, fastTierFloor)
	}
	if base.Aggregate.FastTierSpeedup > 0 {
		tierFloor := base.Aggregate.FastTierSpeedup * (1 - tolerance)
		if rep.Aggregate.FastTierSpeedup < tierFloor {
			return fmt.Errorf("fast-tier regression: prediction speedup %.0fx is below %.0fx (baseline %.0fx - %.0f%%)",
				rep.Aggregate.FastTierSpeedup, tierFloor, base.Aggregate.FastTierSpeedup, tolerance*100)
		}
	}
	if rep.Aggregate.ExploreMinKernelPointsPerSec < exploreFloor {
		return fmt.Errorf("explore floor broken: worst kernel sweeps only %.0f points/sec (floor %.0f)",
			rep.Aggregate.ExploreMinKernelPointsPerSec, exploreFloor)
	}
	if rep.Aggregate.ExploreMinPruneRatio < pruneFloor {
		return fmt.Errorf("explore prune floor broken: worst kernel simulates 1 in %.1f points (floor 1 in %.0f)",
			rep.Aggregate.ExploreMinPruneRatio, pruneFloor)
	}
	if base.Aggregate.ExplorePointsPerSec > 0 {
		expFloor := base.Aggregate.ExplorePointsPerSec * (1 - tolerance)
		if rep.Aggregate.ExplorePointsPerSec < expFloor {
			return fmt.Errorf("explore regression: sweep rate %.0f points/sec is below %.0f (baseline %.0f - %.0f%%)",
				rep.Aggregate.ExplorePointsPerSec, expFloor, base.Aggregate.ExplorePointsPerSec, tolerance*100)
		}
	}
	fmt.Printf("gate ok: sim speedup %.2fx (baseline %.2fx, floor %.2fx), sweep allocs %.0f (ceiling %.0f), fast-tier speedup %.0fx (min kernel %.0fx, floor %.0fx), explore %.0f points/sec (min kernel %.0f, floor %.0f; prune %.0fx)\n",
		rep.Aggregate.Speedup, base.Aggregate.Speedup, floor, rep.Aggregate.FastAllocs, ceil,
		rep.Aggregate.FastTierSpeedup, rep.Aggregate.FastTierMinKernelSpeedup, fastTierFloor,
		rep.Aggregate.ExplorePointsPerSec, rep.Aggregate.ExploreMinKernelPointsPerSec, exploreFloor,
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
	kernels := make([]string, 0, len(rep.Fast))
	for k := range rep.Fast {
		kernels = append(kernels, k)
	}
	sort.Slice(kernels, func(i, j int) bool {
		return kernelOrd(kernels[i]) < kernelOrd(kernels[j])
	})
	fmt.Printf("%-8s %15s %15s %10s %12s %12s %10s %12s %9s\n",
		"kernel", "fast cyc/s", "naive cyc/s", "speedup", "allocs/op", "tier ns/op", "tier-x", "explore p/s", "prune-x")
	for _, k := range kernels {
		f, n, t, e := rep.Fast[k], rep.Naive[k], rep.FastTier[k], rep.Explore[k]
		sp := 0.0
		if n.CyclesPerSec > 0 {
			sp = f.CyclesPerSec / n.CyclesPerSec
		}
		tsp := 0.0
		if t.NsPerOp > 0 {
			tsp = f.NsPerOp / t.NsPerOp
		}
		fmt.Printf("%-8s %15.0f %15.0f %9.1fx %12.0f %12.0f %9.0fx %12.0f %8.0fx\n",
			k, f.CyclesPerSec, n.CyclesPerSec, sp, f.AllocsPerOp, t.NsPerOp, tsp, e.PointsPerSec, e.PruneRatio)
	}
	a := rep.Aggregate
	fmt.Printf("%-8s %15.0f %15.0f %9.1fx %12.0f %12s %9.0fx %12.0f %8.0fx\n",
		"all", a.FastCyclesPerSec, a.NaiveCyclesPerSec, a.Speedup, a.FastAllocs, "", a.FastTierSpeedup,
		a.ExplorePointsPerSec, a.ExploreMinPruneRatio)
}

// kernelOrd sorts lfk2 before lfk10.
func kernelOrd(name string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(name, "lfk"))
	if err != nil {
		return 1 << 20
	}
	return n
}
