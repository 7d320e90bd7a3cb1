package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// tiny runs one workload at a size that takes about a second.
func tiny(t *testing.T, name string, seed int64, traced bool) (*result, string) {
	t.Helper()
	sp := workloads[name]
	opts := options{seed: seed, seconds: 0.05, setups: 1, tracedN: 12}
	var out bytes.Buffer
	var res *result
	var err error
	if traced {
		opts.traceDir = t.TempDir()
		res, err = tracedRun(name, sp, opts, &out)
	} else {
		res, err = untracedRun(name, sp, opts, &out)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", name, seed, err, out.String())
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d failed\n%s", name, seed, res.failed, res.attempted, out.String())
	}
	return res, out.String()
}

var digestLine = regexp.MustCompile(`cycle digest ([0-9a-f]{16})`)

func cycleDigest(t *testing.T, out string) string {
	t.Helper()
	m := digestLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no cycle digest in output:\n%s", out)
	}
	return m[1]
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises for one kind of run.
func benchmarkMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &list); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestDeterminism: for every workload and both kinds of run, one seed
// prints one cycle digest, another seed another, and the model's
// accuracy and the traced pass's exact counters repeat.
func TestDeterminism(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res1, out1 := tiny(t, name, 1, traced)
			res1b, out1b := tiny(t, name, 1, traced)
			_, out2 := tiny(t, name, 2, traced)
			d1, d1b, d2 := cycleDigest(t, out1), cycleDigest(t, out1b), cycleDigest(t, out2)
			if d1 != d1b {
				t.Errorf("%s traced=%v: seed 1 digests %s and %s differ", name, traced, d1, d1b)
			}
			if d1 == d2 {
				t.Errorf("%s traced=%v: seeds 1 and 2 share digest %s: the seed does not drive the inputs", name, traced, d1)
			}
			exact := []string{"tp_err_pct"}
			if traced {
				exact = []string{"simulate.cycles", "cache.hit_ratio", "explore.simulated_ratio"}
			}
			for _, m := range exact {
				if res1.metrics[m] != res1b.metrics[m] {
					t.Errorf("%s traced=%v: %s %v then %v for one seed", name, traced, m, res1.metrics[m], res1b.metrics[m])
				}
			}
		}
	}
}

// TestMetricsPrinted: every metric BENCHMARK.json names is printed, with
// its unit, by every workload's run of the matching kind, and nothing
// else is.
func TestMetricsPrinted(t *testing.T) {
	for _, kind := range []struct {
		key    string
		traced bool
	}{{"end_to_end", false}, {"per_layer", true}} {
		want := benchmarkMetrics(t, kind.key)
		for name := range workloads {
			res, out := tiny(t, name, 3, kind.traced)
			if len(res.metrics) != len(want) {
				t.Errorf("%s %s: %d metrics, want %d", name, kind.key, len(res.metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s %s: metric %s = %+v, want unit %q", name, kind.key, m, got, unit)
				}
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
				if !line.MatchString(out) {
					t.Errorf("%s %s: %s not printed with unit %s", name, kind.key, m, unit)
				}
			}
			b, err := json.Marshal(res.summary())
			if err != nil {
				t.Fatal(err)
			}
			var summary map[string]json.RawMessage
			if err := json.Unmarshal(b, &summary); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := summary[k]; !ok || len(summary) != 4 {
					t.Errorf("%s: summary keys %v, want correct, attempted, failed, metrics", name, summary)
				}
			}
		}
	}
}
