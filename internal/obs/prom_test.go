package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPromWriterGolden pins the registry's exposition byte for byte:
// declaration order, HELP/TYPE headers, sorted label values, escaping,
// histogram bucket + sum/count series and value formatting. Families
// with no series yet (a labeled one nobody updated) are left out.
func TestPromWriterGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("macsd_requests_total", "Requests by endpoint.", "endpoint")
	r.GaugeFunc("macsd_queue_depth", "Jobs waiting in the queue.", func() float64 { return 3 })
	odd := r.Counter("macsd_odd_labels_total", `Escaping: backslash \ quote " newline.`, "path")
	r.Counter("macsd_unused_total", "Never updated.", "cause")
	dur := r.Histogram("macsd_request_duration_seconds", "Request latency.", "endpoint", []float64{0.001, 0.01})
	reqs.Add("batch", 7)
	reqs.Add("analyze", 42)
	odd.Add("a\\b\"c\nd", 1)
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.004, 0.005, 0.02} {
		dur.Observe("analyze", v)
	}

	want := strings.Join([]string{
		`# HELP macsd_requests_total Requests by endpoint.`,
		`# TYPE macsd_requests_total counter`,
		`macsd_requests_total{endpoint="analyze"} 42`,
		`macsd_requests_total{endpoint="batch"} 7`,
		`# HELP macsd_queue_depth Jobs waiting in the queue.`,
		`# TYPE macsd_queue_depth gauge`,
		`macsd_queue_depth 3`,
		`# HELP macsd_odd_labels_total Escaping: backslash \\ quote " newline.`,
		`# TYPE macsd_odd_labels_total counter`,
		`macsd_odd_labels_total{path="a\\b\"c\nd"} 1`,
		`# HELP macsd_request_duration_seconds Request latency.`,
		`# TYPE macsd_request_duration_seconds histogram`,
		`macsd_request_duration_seconds_bucket{endpoint="analyze",le="0.001"} 2`,
		`macsd_request_duration_seconds_bucket{endpoint="analyze",le="0.01"} 5`,
		`macsd_request_duration_seconds_bucket{endpoint="analyze",le="+Inf"} 6`,
		`macsd_request_duration_seconds_sum{endpoint="analyze"} 0.0325`,
		`macsd_request_duration_seconds_count{endpoint="analyze"} 6`,
		``,
	}, "\n")
	if got := string(r.Prom()); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// And the validator must accept the registry's output.
	fams, err := ParseProm(string(r.Prom()))
	if err != nil {
		t.Fatalf("parser rejected registry output: %v", err)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4", len(fams))
	}
}

func TestParsePromRoundTripsEscapes(t *testing.T) {
	r := NewRegistry()
	odd := "a\\b\"c\nd"
	r.Counter("x_total", "h", "l").Add(odd, 1)
	fams, err := ParseProm(string(r.Prom()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["l"]; got != odd {
		t.Fatalf("label round trip: got %q want %q", got, odd)
	}
}

// TestRegistryJSONMatchesProm: rendered from one registry with no
// updates in between, the JSON document and the exposition carry the
// same families with the same values — JSON histograms carry the
// finite buckets, and their count is the +Inf bucket.
func TestRegistryJSONMatchesProm(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "gauge", func() float64 { return 1.5 })
	r.CounterFunc("cf_total", "owned counter", func() float64 { return 9 })
	c := r.Counter("c_total", "counter", "")
	lc := r.Counter("lc_total", "labeled counter", "k")
	r.Counter("empty_total", "no series yet", "k")
	h := r.Histogram("h_seconds", "histogram", "", []float64{0.1, 1})
	lh := r.Histogram("lh_seconds", "labeled histogram", "stage", []float64{0.1, 1})
	c.Add("", 2)
	lc.Add("x", 3)
	lc.Add("y", 0)
	for _, v := range []float64{0.05, 0.5, 5} {
		h.Observe("", v)
		lh.Observe("compile", v)
	}
	lh.Observe("simulate", 0.1)

	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(string(r.Prom()))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) != len(fams) || len(fams) != 6 {
		t.Fatalf("JSON has %d families, exposition %d; want 6 each\n%s", len(doc), len(fams), b)
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			v, ok := doc[f.Name]
			if lv, labeled := s.Labels[labelOf(s)]; labeled {
				v = v.(map[string]any)[lv]
			}
			switch suffix := strings.TrimPrefix(s.Name, f.Name); suffix {
			case "":
			case "_bucket":
				h := v.(map[string]any)
				if s.Labels["le"] == "+Inf" {
					v = h["count"]
					break
				}
				ok = false
				for _, bk := range h["buckets"].([]any) {
					bk := bk.(map[string]any)
					if formatValue(bk["le"].(float64)) == s.Labels["le"] {
						v, ok = bk["count"], true
					}
				}
			default:
				v = v.(map[string]any)[suffix[1:]]
			}
			if !ok || v != s.Value {
				t.Errorf("%s%v = %v in the exposition, %v in JSON", s.Name, s.Labels, s.Value, v)
			}
		}
	}
}

// labelOf names a sample's family label: its one label other than le,
// or "" when it has none.
func labelOf(s PromSample) string {
	for k := range s.Labels {
		if k != "le" {
			return k
		}
	}
	return ""
}

// TestRegistryConcurrent storms one registry's counters and histograms
// from many goroutines while others render both formats — under -race
// the proof of the registry's locking — and then checks that no update
// was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter", "k")
	h := r.Histogram("h_seconds", "histogram", "k", []float64{0.5})
	const writers, each = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ParseProm(string(r.Prom())); err != nil {
					t.Error(err)
					return
				}
				if _, err := json.Marshal(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var ws sync.WaitGroup
	for w := 0; w < writers; w++ {
		ws.Add(1)
		go func(w int) {
			defer ws.Done()
			for i := 0; i < each; i++ {
				c.Add("a", 1)
				h.Observe(fmt.Sprint(w%2), float64(i%2))
			}
		}(w)
	}
	ws.Wait()
	close(stop)
	readers.Wait()
	want := map[string]float64{
		`c_total{k="a"}`:                   writers * each,
		`h_seconds_count{k="0"}`:           writers / 2 * each,
		`h_seconds_bucket{k="1",le="0.5"}`: writers / 2 * each / 2,
	}
	for _, line := range strings.Split(string(r.Prom()), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && want[k] != 0 {
			if v != formatValue(want[k]) {
				t.Errorf("%s = %s, want %v", k, v, want[k])
			}
			delete(want, k)
		}
	}
	if len(want) > 0 {
		t.Errorf("series missing: %v", want)
	}
}

func TestParsePromRejectsViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of the error
	}{
		{
			"sample without TYPE",
			"foo 1\n",
			"no preceding TYPE",
		},
		{
			"TYPE after samples",
			"# TYPE foo counter\nfoo 1\n# TYPE bar gauge\nbar 1\n# TYPE foo counter\n",
			"reopened",
		},
		{
			"interleaved family groups",
			"# TYPE foo counter\nfoo 1\n# TYPE bar gauge\nbar 1\nfoo 2\n",
			"outside its family's group",
		},
		{
			"unknown type",
			"# TYPE foo flurble\nfoo 1\n",
			"unknown TYPE",
		},
		{
			"bad escape",
			"# TYPE foo counter\nfoo{l=\"a\\qb\"} 1\n",
			"invalid escape",
		},
		{
			"duplicate series",
			"# TYPE foo counter\nfoo{a=\"x\"} 1\nfoo{a=\"x\"} 2\n",
			"duplicate series",
		},
		{
			"buckets out of order",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.01\"} 1\nh_bucket{le=\"0.001\"} 2\nh_bucket{le=\"+Inf\"} 3\n" +
				"h_sum 1\nh_count 3\n",
			"not strictly increasing",
		},
		{
			"bucket counts decrease",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.001\"} 5\nh_bucket{le=\"0.01\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
				"h_sum 1\nh_count 5\n",
			"counts decrease",
		},
		{
			"missing +Inf bucket",
			"# TYPE h histogram\nh_bucket{le=\"0.001\"} 1\nh_sum 1\nh_count 1\n",
			"no +Inf bucket",
		},
		{
			"+Inf disagrees with count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
			"!= count",
		},
		{
			"stray histogram series",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\nh_quantile 1\n",
			"no preceding TYPE",
		},
		{
			"bad metric name",
			"# TYPE 9foo counter\n9foo 1\n",
			"invalid metric name",
		},
		{
			"bad label name",
			"# TYPE foo counter\nfoo{9l=\"x\"} 1\n",
			"invalid label name",
		},
		{
			"unterminated label block",
			"# TYPE foo counter\nfoo{l=\"x\" 1\n",
			"malformed label",
		},
		{
			"bad value",
			"# TYPE foo counter\nfoo x\n",
			"bad value",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProm(tc.text)
			if err == nil {
				t.Fatalf("parser accepted invalid input:\n%s", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParsePromAcceptsSpecialValues(t *testing.T) {
	text := "# TYPE foo gauge\nfoo{k=\"a\"} +Inf\nfoo{k=\"b\"} -Inf\nfoo{k=\"c\"} NaN\n"
	fams, err := ParseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	s := fams[0].Samples
	if !math.IsInf(s[0].Value, 1) || !math.IsInf(s[1].Value, -1) || !math.IsNaN(s[2].Value) {
		t.Fatalf("special values parsed wrong: %+v", s)
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0:           "0",
		1.5:         "1.5",
		math.Inf(1): "+Inf",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
