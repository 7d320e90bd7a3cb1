package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// This file is the independent validator for the text exposition format
// the Registry emits: the golden tests parse what the registry wrote,
// and CI scrapes a running macsd's /metrics?format=prom through it. It
// deliberately checks the rules a hand-rolled writer is most likely to
// break — header ordering, family grouping, label escaping, histogram
// bucket monotonicity and +Inf/count agreement — rather than being a
// full scrape-protocol implementation.

var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string // full series name, e.g. foo_bucket
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family: its headers and samples.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// ParseProm parses and validates an exposition document, returning its
// families in order of appearance. Any format violation is an error.
func ParseProm(text string) ([]PromFamily, error) {
	var (
		families []PromFamily
		byName   = map[string]*PromFamily{}
		current  *PromFamily // family whose group is open
		closed   = map[string]bool{}
	)
	family := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		families = append(families, PromFamily{Name: name})
		f := &families[len(families)-1]
		byName[name] = f
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "" { // plain comment
				continue
			}
			if !promNameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if closed[name] {
				return nil, fmt.Errorf("line %d: family %q reopened after its group ended", lineNo, name)
			}
			if current != nil && current.Name != name {
				closed[current.Name] = true
			}
			f := family(name)
			current = f
			switch kind {
			case "HELP":
				if f.Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: HELP for %q after its samples", lineNo, name)
				}
				f.Help = rest
			case "TYPE":
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %q", lineNo, rest, name)
				}
				f.Type = rest
			}
			continue
		}

		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := sampleFamily(s.Name, byName)
		if closed[famName] {
			return nil, fmt.Errorf("line %d: sample %q outside its family's group", lineNo, s.Name)
		}
		f, ok := byName[famName]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE header", lineNo, s.Name)
		}
		if f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q before a TYPE for %q", lineNo, s.Name, famName)
		}
		if current != nil && current.Name != famName {
			closed[current.Name] = true
			current = f
		}
		f.Samples = append(f.Samples, s)
	}

	for i := range families {
		if err := validateFamily(&families[i]); err != nil {
			return nil, err
		}
	}
	return families, nil
}

// parseComment splits a "# HELP name text" / "# TYPE name type" line;
// other comments return kind "".
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	word, tail, _ := strings.Cut(body, " ")
	if word != "HELP" && word != "TYPE" {
		return "", "", "", nil
	}
	name, rest, ok := strings.Cut(tail, " ")
	if name == "" {
		return "", "", "", fmt.Errorf("malformed %s comment", word)
	}
	if word == "TYPE" && !ok {
		return "", "", "", fmt.Errorf("TYPE for %q names no type", name)
	}
	return word, name, rest, nil
}

// parseSample parses one "name{a="b",...} value" line.
func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !promNameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid series name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A trailing timestamp is legal in the format; the writer never emits
	// one, and rejecting it keeps the validator strict about our output.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parsePromValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {name="value",...} block starting at text[0]=='{'
// and returns the index just past the closing brace.
func parseLabels(text string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(text) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if text[i] == '}' {
			return i + 1, nil
		}
		j := strings.IndexByte(text[i:], '=')
		if j < 0 {
			return 0, fmt.Errorf("malformed label block %q", text)
		}
		name := text[i : i+j]
		if !promLabelRE.MatchString(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(text) || text[i] != '"' {
			return 0, fmt.Errorf("unquoted value for label %q", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(text) {
				return 0, fmt.Errorf("unterminated value for label %q", name)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, fmt.Errorf("dangling escape in label %q", name)
				}
				switch text[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("invalid escape \\%c in label %q", text[i+1], name)
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = b.String()
		if i < len(text) && text[i] == ',' {
			i++
		}
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// sampleFamily maps a series name to its family: exact match, or the
// histogram/summary suffixes of a declared family.
func sampleFamily(series string, byName map[string]*PromFamily) string {
	if _, ok := byName[series]; ok {
		return series
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(series, suf); ok {
			if _, ok := byName[base]; ok {
				return base
			}
		}
	}
	return series
}

// validateFamily applies the per-family semantic checks: legal series
// names for the declared type, no duplicate series, and for histograms
// bucket monotonicity plus +Inf/count agreement per label set.
func validateFamily(f *PromFamily) error {
	seen := map[string]bool{}
	for _, s := range f.Samples {
		if f.Type == "histogram" {
			switch {
			case s.Name == f.Name+"_bucket", s.Name == f.Name+"_sum", s.Name == f.Name+"_count":
			default:
				return fmt.Errorf("family %q: unexpected histogram series %q", f.Name, s.Name)
			}
		} else if s.Name != f.Name {
			return fmt.Errorf("family %q: unexpected series %q", f.Name, s.Name)
		}
		id := s.Name + "|" + labelSig(s.Labels, false)
		if seen[id] {
			return fmt.Errorf("family %q: duplicate series %s{%s}", f.Name, s.Name, labelSig(s.Labels, false))
		}
		seen[id] = true
	}
	if f.Type != "histogram" {
		return nil
	}

	type histAgg struct {
		les     []float64
		cums    []float64
		count   float64
		hasCnt  bool
		hasInf  bool
		infCum  float64
		lastLE  float64
		ordered bool
	}
	byLabels := map[string]*histAgg{}
	agg := func(sig string) *histAgg {
		a, ok := byLabels[sig]
		if !ok {
			a = &histAgg{ordered: true, lastLE: math.Inf(-1)}
			byLabels[sig] = a
		}
		return a
	}
	for _, s := range f.Samples {
		sig := labelSig(s.Labels, true)
		a := agg(sig)
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %q: bucket without le label", f.Name)
			}
			le, err := parsePromValue(leStr)
			if err != nil {
				return fmt.Errorf("family %q: bad le %q: %w", f.Name, leStr, err)
			}
			if le <= a.lastLE {
				a.ordered = false
			}
			a.lastLE = le
			if math.IsInf(le, 1) {
				a.hasInf = true
				a.infCum = s.Value
			}
			a.les = append(a.les, le)
			a.cums = append(a.cums, s.Value)
		case f.Name + "_count":
			a.count = s.Value
			a.hasCnt = true
		}
	}
	for sig, a := range byLabels {
		if len(a.les) == 0 {
			return fmt.Errorf("family %q{%s}: histogram series without buckets", f.Name, sig)
		}
		if !a.ordered {
			return fmt.Errorf("family %q{%s}: bucket le bounds not strictly increasing", f.Name, sig)
		}
		for i := 1; i < len(a.cums); i++ {
			if a.cums[i] < a.cums[i-1] {
				return fmt.Errorf("family %q{%s}: bucket counts decrease at le=%s",
					f.Name, sig, formatValue(a.les[i]))
			}
		}
		if !a.hasInf {
			return fmt.Errorf("family %q{%s}: no +Inf bucket", f.Name, sig)
		}
		if a.hasCnt && a.infCum != a.count {
			return fmt.Errorf("family %q{%s}: +Inf bucket %g != count %g",
				f.Name, sig, a.infCum, a.count)
		}
	}
	return nil
}

// labelSig renders a label set as a canonical signature; dropLE removes
// the histogram bucket label so buckets of one series group together.
func labelSig(labels map[string]string, dropLE bool) string {
	parts := make([]string, 0, len(labels))
	for _, k := range SortedLabelKeys(labels) {
		if dropLE && k == "le" {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	return strings.Join(parts, ",")
}
