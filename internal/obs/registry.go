package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the metrics registry. Each family is declared once —
// name, help, type, at most one label and, for a histogram, its buckets
// — and the registry renders all of them, in declaration order, either
// as a Prometheus text exposition (version 0.0.4) or as one JSON
// document; both renderings read the same snapshot of each family. No
// client library: the inventory is small and fixed, and the repo policy
// is zero new dependencies. The exposition keeps the format's structural
// rules by construction — one HELP/TYPE header per family, all of a
// family's samples in one group, cumulative buckets closed by a +Inf
// bucket equal to the count — and promparse.go is the independent
// validator the tests and the CI scrape gate run against it.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry holds metric families in declaration order. Declare every
// family before the first update or render; from then on the registry
// is safe for concurrent use.
type Registry struct {
	fams []*family
}

// family is one declared metric family.
type family struct {
	name, help, typ string
	label           string         // the one label's name; "" for none
	buckets         []float64      // histogram upper bounds, increasing
	read            func() float64 // set when the owner answers at render time

	mu     sync.Mutex
	series map[string]*series // by label value; "" when unlabeled
}

// series is one label value's state: a counter's total, or a
// histogram's per-bucket counts (the +Inf bucket last) and sum.
type series struct {
	value  float64
	counts []int64
	sum    float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// declare appends one family to the registry.
func (r *Registry) declare(name, help, typ, label string, buckets []float64, read func() float64) *family {
	f := &family{name: name, help: help, typ: typ, label: label, buckets: buckets, read: read,
		series: map[string]*series{}}
	if label == "" && read == nil {
		f.at("") // an unlabeled family renders from the start
	}
	r.fams = append(r.fams, f)
	return f
}

// at returns the series of label value lv, creating it. The caller holds
// f.mu, or owns f before anyone else can reach it.
func (f *family) at(lv string) *series {
	s, ok := f.series[lv]
	if !ok {
		s = &series{}
		if f.buckets != nil {
			s.counts = make([]int64, len(f.buckets)+1)
		}
		f.series[lv] = s
	}
	return s
}

// Counter is a counter family the caller updates.
type Counter struct{ f *family }

// Counter declares a counter family with one label, or none when label
// is "". A labeled family renders the label values it has seen, sorted,
// and nothing before the first.
func (r *Registry) Counter(name, help, label string) Counter {
	return Counter{r.declare(name, help, "counter", label, nil, nil)}
}

// Add adds v to the series of label value lv ("" when unlabeled); adding
// 0 makes the series appear.
func (c Counter) Add(lv string, v float64) {
	c.f.mu.Lock()
	c.f.at(lv).value += v
	c.f.mu.Unlock()
}

// Histogram is a histogram family the caller updates.
type Histogram struct{ f *family }

// Histogram declares a histogram family over the given increasing upper
// bounds, with one label, or none when label is "".
func (r *Registry) Histogram(name, help, label string, buckets []float64) Histogram {
	return Histogram{r.declare(name, help, "histogram", label, buckets, nil)}
}

// Observe records v in the series of label value lv ("" when
// unlabeled): in the first bucket whose bound is at least v.
func (h Histogram) Observe(lv string, v float64) {
	h.f.mu.Lock()
	s := h.f.at(lv)
	s.counts[sort.SearchFloat64s(h.f.buckets, v)]++
	s.sum += v
	h.f.mu.Unlock()
}

// CounterFunc declares an unlabeled counter whose owner keeps the total:
// read answers it at render time.
func (r *Registry) CounterFunc(name, help string, read func() float64) {
	r.declare(name, help, "counter", "", nil, read)
}

// GaugeFunc declares an unlabeled gauge that read answers at render time.
func (r *Registry) GaugeFunc(name, help string, read func() float64) {
	r.declare(name, help, "gauge", "", nil, read)
}

// sample is one series as rendered: its label value, and a value or a
// histogram's cumulative bucket counts (+Inf last, equal to the count)
// and sum.
type sample struct {
	lv    string
	value float64
	cum   []int64
	sum   float64
}

// snapshot reads f's series, sorted by label value.
func (f *family) snapshot() []sample {
	if f.read != nil {
		return []sample{{value: f.read()}}
	}
	f.mu.Lock()
	out := make([]sample, 0, len(f.series))
	for lv, s := range f.series {
		sm := sample{lv: lv, value: s.value, sum: s.sum}
		if s.counts != nil {
			sm.cum = make([]int64, len(s.counts))
			var n int64
			for i, c := range s.counts {
				n += c
				sm.cum[i] = n
			}
		}
		out = append(out, sm)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].lv < out[j].lv })
	return out
}

// Prom renders every family that has a series as a text exposition
// document.
func (r *Registry) Prom() []byte {
	var b bytes.Buffer
	for _, f := range r.fams {
		samples := f.snapshot()
		if len(samples) == 0 {
			continue
		}
		b.WriteString("# HELP " + f.name + " " + helpEscaper.Replace(f.help) + "\n")
		b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range samples {
			if s.cum == nil {
				f.line(&b, "", s.lv, "", s.value)
				continue
			}
			for i, le := range f.buckets {
				f.line(&b, "_bucket", s.lv, formatValue(le), float64(s.cum[i]))
			}
			count := float64(s.cum[len(f.buckets)])
			f.line(&b, "_bucket", s.lv, "+Inf", count)
			f.line(&b, "_sum", s.lv, "", s.sum)
			f.line(&b, "_count", s.lv, "", count)
		}
	}
	return b.Bytes()
}

// line writes one sample line: the family name and suffix, the label
// when the family has one, the le bound when le is set, and v.
func (f *family) line(b *bytes.Buffer, suffix, lv, le string, v float64) {
	var labels []string
	if f.label != "" {
		labels = append(labels, f.label+`="`+labelEscaper.Replace(lv)+`"`)
	}
	if le != "" {
		labels = append(labels, `le="`+le+`"`)
	}
	b.WriteString(f.name + suffix)
	if len(labels) > 0 {
		b.WriteString("{" + strings.Join(labels, ",") + "}")
	}
	b.WriteString(" " + formatValue(v) + "\n")
}

// jsonHistogram is one histogram series in the JSON document: its
// cumulative finite buckets (the +Inf bucket is Count), sum and count.
type jsonHistogram struct {
	Buckets []jsonBucket `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   int64        `json:"count"`
}

type jsonBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the families Prom renders, with the same values,
// as one object keyed by family name. An unlabeled counter or gauge is
// its value, an unlabeled histogram a jsonHistogram, and a labeled
// family an object of those by label value.
func (r *Registry) MarshalJSON() ([]byte, error) {
	doc := make(map[string]any, len(r.fams))
	for _, f := range r.fams {
		samples := f.snapshot()
		if len(samples) == 0 {
			continue
		}
		byLabel := make(map[string]any, len(samples))
		for _, s := range samples {
			var v any = s.value
			if s.cum != nil {
				h := jsonHistogram{Sum: s.sum, Count: s.cum[len(f.buckets)]}
				for i, le := range f.buckets {
					h.Buckets = append(h.Buckets, jsonBucket{LE: le, Count: s.cum[i]})
				}
				v = h
			}
			byLabel[s.lv] = v
		}
		if f.label == "" {
			doc[f.name] = byLabel[""]
		} else {
			doc[f.name] = byLabel
		}
	}
	return json.Marshal(doc)
}

// formatValue renders a sample value or bucket bound; Prometheus accepts
// Go's 'g' shortest representation plus the spelled-out specials.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes a label value per the exposition format:
// backslash, double-quote and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper escapes a HELP text: backslash and line feed only (quotes
// are legal there).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// SortedLabelKeys returns m's keys sorted, for code that must walk a map
// deterministically.
func SortedLabelKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
