package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// This file decodes request bodies. Priming arrays are most of an
// analyze, ax, explore or batch body, and encoding/json spends a few
// hundred nanoseconds on each of their numbers, so decodeBody lifts every
// "prime" member out of such a body, parses it straight from the bytes
// into a Priming, and hands encoding/json only the remainder, with each
// lifted value replaced by null (a no-op on a struct field). A body the
// lifter does not accept whole is decoded whole by encoding/json, so
// every rejection keeps its status and error text.

// decodeBody decodes body into v as exactly one JSON value: unknown
// fields and anything but whitespace after the value answer 400, and
// decodeBody returns false.
func decodeBody(w http.ResponseWriter, body []byte, v any) bool {
	if decodeLifted(body, v) {
		return true
	}
	if err := unmarshalBody(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// unmarshalBody is encoding/json's strict decode of one whole body.
func unmarshalBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if end := dec.InputOffset(); len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0 {
			err = fmt.Errorf("data after the JSON value at offset %d", end)
		}
	}
	return err
}

// decodeLifted is decodeBody's fast path. It reports false, leaving v
// untouched, for a request type without priming, a body with no prime
// member or one outside the lifter's subset, and a remainder that does
// not decode.
func decodeLifted(body []byte, v any) bool {
	switch r := v.(type) {
	case *AnalyzeRequest:
		return decodeRest(body, r, false, func(q *AnalyzeRequest) []*Priming { return []*Priming{&q.Prime} })
	case *AXRequest:
		return decodeRest(body, r, false, func(q *AXRequest) []*Priming { return []*Priming{&q.Prime} })
	case *ExploreRequest:
		return decodeRest(body, r, false, func(q *ExploreRequest) []*Priming { return []*Priming{&q.Prime} })
	case *BatchRequest:
		return decodeRest(body, r, true, func(q *BatchRequest) []*Priming {
			slots := make([]*Priming, len(q.Items))
			for i := range q.Items {
				slots[i] = &q.Items[i].Prime
			}
			return slots
		})
	}
	return false
}

// decodeRest lifts body's primings, decodes the remainder into a fresh
// T and sets each of its priming slots (one per object the lifter
// walked: the request, or each batch item) before storing it in v.
func decodeRest[T any](body []byte, v *T, batch bool, slots func(*T) []*Priming) bool {
	rest, primes, ok := liftPrimes(body, batch)
	if !ok {
		return false
	}
	var req T
	if unmarshalBody(rest, &req) != nil {
		return false
	}
	s := slots(&req)
	if len(s) != len(primes) {
		return false
	}
	for i, p := range s {
		*p = primes[i]
	}
	*v = req
	return true
}

// liftPrimes walks a request object, or with batch each element of a
// batch's "items" array, and parses every "prime" member into that
// object's Priming. Repeated members, sections and names merge as
// encoding/json merges them into one struct: maps are reused, a later
// name overwrites an earlier one, and an array is replaced whole. It
// returns the body with each lifted value replaced by null, and ok false
// when it lifted nothing or met anything encoding/json might read
// differently: an escape or a non-ASCII byte in a name at the levels it
// walks, a case variant of "prime" or "items" (encoding/json matches
// field names case-insensitively), a repeated "items", a priming value
// that is not an object of exactly "ints", "reals" and "arrays", a null,
// or a number out of its type's range or not in JSON syntax. Values it
// does not lift are stepped over unchecked: encoding/json checks the
// remainder, and a remainder that decodes shows they were well formed.
func liftPrimes(body []byte, batch bool) (rest []byte, primes []Priming, ok bool) {
	l := &lifter{b: body}
	l.ws()
	if batch {
		seen := false
		ok = l.members(func(name []byte) bool {
			switch {
			case string(name) == "items":
				if seen {
					return false
				}
				seen = true
				return l.items(&primes)
			case bytes.EqualFold(name, []byte("items")):
				return false
			}
			return l.skip()
		})
	} else {
		primes = make([]Priming, 1)
		ok = l.request(&primes[0])
	}
	if !ok || len(l.spans) == 0 {
		return nil, nil, false
	}
	n := len(body)
	for _, sp := range l.spans {
		n += len("null") - (sp[1] - sp[0])
	}
	rest = make([]byte, 0, n)
	prev := 0
	for _, sp := range l.spans {
		rest = append(rest, body[prev:sp[0]]...)
		rest = append(rest, "null"...)
		prev = sp[1]
	}
	return append(rest, body[prev:]...), primes, true
}

// lifter is liftPrimes' cursor over one body.
type lifter struct {
	b []byte
	i int
	// spans are the lifted values' [start, end) offsets, in body order.
	spans [][2]int
}

// request walks one request object, lifting its prime members into p.
func (l *lifter) request(p *Priming) bool {
	return l.members(func(name []byte) bool {
		switch {
		case string(name) == "prime":
			return l.prime(p)
		case bytes.EqualFold(name, []byte("prime")):
			return false
		}
		return l.skip()
	})
}

// items walks a batch's items array, one request object per element.
func (l *lifter) items(primes *[]Priming) bool {
	if !l.consume('[') {
		return false
	}
	l.ws()
	if l.consume(']') {
		return true
	}
	for {
		var p Priming
		if !l.request(&p) {
			return false
		}
		*primes = append(*primes, p)
		l.ws()
		if !l.consume(',') {
			return l.consume(']')
		}
		l.ws()
	}
}

// prime parses one priming object into p and records its span.
func (l *lifter) prime(p *Priming) bool {
	start := l.i
	ok := l.members(func(section []byte) bool {
		switch string(section) {
		case "ints":
			if p.Ints == nil {
				p.Ints = make(map[string]int64)
			}
			return l.members(func(name []byte) bool {
				v, ok := l.int()
				p.Ints[string(name)] = v
				return ok
			})
		case "reals":
			if p.Reals == nil {
				p.Reals = make(map[string]float64)
			}
			return l.members(func(name []byte) bool {
				v, ok := l.real()
				p.Reals[string(name)] = v
				return ok
			})
		case "arrays":
			if p.Arrays == nil {
				p.Arrays = make(map[string][]float64)
			}
			return l.members(func(name []byte) bool {
				vals, ok := l.reals()
				p.Arrays[string(name)] = vals
				return ok
			})
		}
		return false
	})
	if ok {
		l.spans = append(l.spans, [2]int{start, l.i})
	}
	return ok
}

// members walks the object at the cursor, calling member with each
// member's name and the cursor on its value, which member must consume.
func (l *lifter) members(member func(name []byte) bool) bool {
	if !l.consume('{') {
		return false
	}
	l.ws()
	if l.consume('}') {
		return true
	}
	for {
		name, ok := l.name()
		if !ok {
			return false
		}
		l.ws()
		if !l.consume(':') {
			return false
		}
		l.ws()
		if !member(name) {
			return false
		}
		l.ws()
		if !l.consume(',') {
			return l.consume('}')
		}
		l.ws()
	}
}

// name reads a member name made of printable ASCII without escapes.
func (l *lifter) name() ([]byte, bool) {
	if !l.consume('"') {
		return nil, false
	}
	start := l.i
	for ; l.i < len(l.b); l.i++ {
		switch c := l.b[l.i]; {
		case c == '"':
			l.i++
			return l.b[start : l.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int reads a JSON integer that fits an int64.
func (l *lifter) int() (int64, bool) {
	num, integer := l.number()
	if num == nil || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	return v, err == nil
}

// real reads a JSON number that fits a float64.
func (l *lifter) real() (float64, bool) {
	num, _ := l.number()
	if num == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// reals reads an array of JSON numbers. An empty array is an empty, not
// a nil, slice, as encoding/json leaves it.
func (l *lifter) reals() ([]float64, bool) {
	if !l.consume('[') {
		return nil, false
	}
	// Size the slice by the commas before the first ']': exact for a
	// well-formed array, a mere hint otherwise.
	n := 0
	if end := bytes.IndexByte(l.b[l.i:], ']'); end > 0 {
		n = bytes.Count(l.b[l.i:l.i+end], []byte{','}) + 1
	}
	vals := make([]float64, 0, n)
	l.ws()
	if l.consume(']') {
		return vals, true
	}
	for {
		v, ok := l.real()
		if !ok {
			return nil, false
		}
		vals = append(vals, v)
		l.ws()
		if !l.consume(',') {
			return vals, l.consume(']')
		}
		l.ws()
	}
}

// number reads a number in JSON syntax, -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?, and reports whether it is an integer (no fraction
// or exponent). It returns nil, leaving the cursor, on anything else.
func (l *lifter) number() (num []byte, integer bool) {
	b, i := l.b, l.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		d := digits(b, i+1)
		if d == i+1 {
			return nil, false
		}
		i = d
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := digits(b, i)
		if d == i {
			return nil, false
		}
		i = d
	}
	num, l.i = b[l.i:i], i
	return num, integer
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// skip steps over the value at the cursor without checking it.
func (l *lifter) skip() bool {
	if l.i >= len(l.b) {
		return false
	}
	switch l.b[l.i] {
	case '"':
		return l.skipString()
	case '{', '[':
		depth := 0
		for l.i < len(l.b) {
			switch l.b[l.i] {
			case '"':
				if !l.skipString() {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					l.i++
					return true
				}
			}
			l.i++
		}
		return false
	}
	// A literal or a number runs to the next delimiter.
	for ; l.i < len(l.b); l.i++ {
		switch l.b[l.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return true
		}
	}
	return false
}

// skipString steps over the string at the cursor.
func (l *lifter) skipString() bool {
	for i := l.i + 1; i < len(l.b); i++ {
		switch l.b[i] {
		case '\\':
			i++
		case '"':
			l.i = i + 1
			return true
		}
	}
	return false
}

// ws steps over JSON whitespace.
func (l *lifter) ws() {
	for l.i < len(l.b) {
		switch l.b[l.i] {
		case ' ', '\t', '\n', '\r':
			l.i++
		default:
			return
		}
	}
}

// consume steps over c if it is the byte at the cursor.
func (l *lifter) consume(c byte) bool {
	if l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}
