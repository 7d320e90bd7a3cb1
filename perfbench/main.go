// Command perfbench measures the MACS analysis service the way its
// callers meet it: the real HTTP handler, service.NewHandler(service.New(cfg)),
// driven in-process by one closed-loop client that waits for each reply
// before it sends the next request.
//
//	perfbench --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics, which it gets by calling each
// layer's public function itself, in the service's order, on the same
// seeded inputs, with an internal/obs span around every call. Either way
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "seconds one run measures")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	spec, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	// The service runs two workers; two Ps give them the two cores of
	// the reference host, whatever this host's core count.
	runtime.GOMAXPROCS(2)

	opts := options{seed: *seed, seconds: *seconds, setups: defaultSetups, tracedN: spec.tracedN}
	var res *result
	var err error
	if *trace == 1 {
		opts.traceDir = *out
		res, err = tracedRun(*name, spec, opts, stdout)
	} else {
		res, err = untracedRun(*name, spec, opts, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
